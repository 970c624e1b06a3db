"""Command-line entry point for reproducible experiment runs.

Exit codes: 0 success, 1 validation or I/O error (a bad command line too),
2 non-convergence (including a solver that raises RuntimeError, such as
ConvergenceError). Errors print one `error:` line to stderr, never a
traceback. Only collect, ope-compare and frozenlake-experiment draw random
numbers, from a single --seed; per-component streams are derived with fixed
labels so identical invocations produce byte-identical files.
"""

import argparse
import sys

import numpy as np

from . import dataset as ds
from .batchrl import CostSelector, fqe, fqi, lspi, lspi_policy
from .funcapprox import QFunction, one_hot_features
from .learner import (ConvergenceError, LearnerConfig, MixturePolicy,
                      derandomize, exact_constrained_optimum, run,
                      write_trace_csv)
from .mdp import DeterministicPolicy, build_frozenlake, FROZENLAKE_8X8
from .onlineopt import EG_FLAVOR, OGD_FLAVOR
from .ope import OpeConfig, ope_comparison, write_ope_report
from .oracle import exact_policy_values

# Fixed labels for deriving independent seed streams from the single --seed.
_STREAM_COLLECT = 1
_STREAM_OPE = 3


class ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Subcommand parsers share the class, so every command line error
    reaches main as one ValidationError instead of a usage block."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _stream(seed, label):
    return np.random.default_rng(np.random.SeedSequence([int(seed), label]))


def _load_map(spec, gamma):
    if spec == "8x8":
        return build_frozenlake(FROZENLAKE_8X8, gamma=gamma)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            layout = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read map file: {exc}") from None
    try:
        return build_frozenlake(layout, gamma=gamma)
    except ValueError as exc:
        raise ValidationError(f"bad map file {spec}: {exc}") from None


def _load_data(path, mdp=None):
    """Load a dataset; with a map, every x and x_next must be one of its
    states and every a one of its actions."""
    data = ds.load(path)
    if mdp is not None:
        try:
            ds.check_indices(data, mdp.num_states, mdp.num_actions)
        except ValueError as exc:
            raise ValidationError(f"dataset {path}: {exc} for the map") from None
    return data


def _parse_cost(text):
    if text == "c":
        return CostSelector.primary()
    if text.startswith("g:"):
        return CostSelector.constraint(int(text[2:]) - 1)
    if text.startswith("scalarized:"):
        lam = np.array([float(v) for v in text[len("scalarized:"):].split(",")])
        return CostSelector.scalarized(lam)
    raise ValidationError("cost must be c, g:<i>, or scalarized:<lam csv>")


def save_policy(policy, path=None):
    """Write state,action rows to path, or to stdout when path is None."""
    ds.write_csv(sys.stdout if path is None else path, "state,action",
                 (np.arange(len(policy.actions)), policy.actions))


def save_mixture(mixture, path):
    """Write member,weight,state,action rows, one member after another."""
    actions = np.array([p.actions for p in mixture.members])
    k, S = actions.shape
    ds.write_csv(path, "member,weight,state,action",
                 (np.repeat(np.arange(k), S), np.repeat(mixture.weights, S),
                  np.tile(np.arange(S), k), actions.ravel()))


def _policy_of_rows(states, actions, num_states, num_actions, path):
    """The deterministic policy of a file's state and action columns. Every
    state of 0..num_states-1 must appear exactly once, with an action in
    [0, num_actions)."""
    order = np.argsort(states)
    if not np.array_equal(states[order], np.arange(num_states)):
        raise ValidationError(
            f"policy file {path} lists {len(states)} state rows in "
            f"{states.min()}..{states.max()}; expected each of the "
            f"{num_states} states 0..{num_states - 1} once")
    bad = np.flatnonzero((actions < 0) | (actions >= num_actions))
    if len(bad):
        raise ValidationError(f"policy file {path}: action {actions[bad[0]]} "
                              f"at state {states[bad[0]]} is outside "
                              f"[0, {num_actions})")
    return DeterministicPolicy(actions[order])


def load_policy(path, num_states, num_actions, allow_mixture=True):
    """Load a deterministic policy or, if allow_mixture, a mixture, as the
    header says, checked against num_states states and num_actions
    actions."""
    def fields(header, path):
        line = ",".join(header).strip()
        if line not in ("state,action", "member,weight,state,action"):
            raise ValidationError(f"unrecognized policy file header: "
                                  f"{line!r}")
        if line != "state,action" and not allow_mixture:
            raise ValidationError(f"policy file {path} holds a mixture; this "
                                  f"command takes a state,action policy")
        return [np.float64 if name == "weight" else np.int64
                for name in header]
    try:
        columns = ds.read_csv(path, fields)
    except OSError as exc:
        raise ValidationError(f"cannot read policy file: {exc}") from None
    if not len(columns[0]):
        raise ValidationError(f"policy file {path} lists no rows")
    if len(columns) == 2:
        return _policy_of_rows(*columns, num_states, num_actions, path)
    members, weights, states, actions = columns
    bad = np.flatnonzero(~((0 < weights) & (weights < np.inf)))  # NaN too
    if len(bad):
        raise ValidationError(f"policy file {path}: member {members[bad[0]]} "
                              f"has weight {weights[bad[0]]}; weights must be "
                              f"finite and positive")
    _, first, inverse = np.unique(members, return_index=True,
                                  return_inverse=True)
    expected = weights[first][inverse]
    bad = np.flatnonzero(weights != expected)
    if len(bad):
        raise ValidationError(f"policy file {path}: member {members[bad[0]]} "
                              f"has rows with weights {expected[bad[0]]} and "
                              f"{weights[bad[0]]}")
    policies = [_policy_of_rows(states[inverse == j], actions[inverse == j],
                                num_states, num_actions, path)
                for j in range(len(first))]
    # Divided by the power of two at or above the largest weight, the sum of
    # finite weights stays finite; where the unscaled sum does not overflow,
    # every count is the one the unscaled weights give. The sum runs in the
    # order the members first appear.
    scaled = np.ldexp(weights[first], -np.frexp(weights.max())[1])
    total = sum(scaled[np.argsort(first)].tolist())
    counts = [max(1, round(w / total * 10 ** 9)) for w in scaled.tolist()]
    return MixturePolicy(policies, counts, [0.0] * len(first),
                         [np.zeros(0)] * len(first))


def _cmd_collect(args):
    mdp = _load_map(args.map, 0.95)  # a rollout never reads the discount
    behavior = ds.make_frozenlake_behavior(mdp, args.epsilon)
    rng = _stream(args.seed, _STREAM_COLLECT)
    data = ds.collect(mdp, behavior, args.trajs, args.horizon, rng)
    ds.save(data, args.out)
    print(f"wrote {len(data)} transitions over {data.num_trajectories} "
          f"trajectories to {args.out}")
    return 0


def _resolve_learn_config(args):
    """LearnerConfig from the flags. Flags that would do nothing are
    rejected: the fitted-solver flags under the flavors that solve their MDP
    exactly, --data under the exact flavor, which solves the map, and
    --derandomize without --policy-out. The fitted-solver flags default to
    LearnerConfig's values when not given."""
    fitted = {"K_fqi": args.iters_fqi, "K_fqe": args.iters_fqe}
    given = {k: v for k, v in fitted.items() if v is not None}
    if given and args.flavor != "fitted":
        raise ValidationError(f"--flavor {args.flavor} solves its MDP exactly "
                              f"and takes no --iters-fqi or --iters-fqe")
    if args.data and args.flavor == "exact":
        raise ValidationError("--flavor exact solves the map's MDP and takes "
                              "no --data")
    if args.derandomize and not args.policy_out:
        raise ValidationError("--derandomize writes its policy to "
                              "--policy-out, which is missing")
    return LearnerConfig(
        B=args.B, eta=args.eta, omega=args.omega,
        tau=np.array([float(v) for v in args.tau.split(",")]),
        **given,
        max_rounds=args.rounds,
        dual_flavor={"eg": EG_FLAVOR, "ogd": OGD_FLAVOR}[args.dual],
        subroutine_flavor=args.flavor, gamma=args.gamma)


def _finish(trace, extra=""):
    """Print the run's summary line, then extra; the exit code is 0 if the
    run converged and 2 if not."""
    print(f"rounds={trace.total_rounds} converged={trace.converged} "
          f"final_gap={trace.gap[-1]:.6g}{extra}")
    return 0 if trace.converged else 2


def _cmd_learn(args):
    config = _resolve_learn_config(args)
    mdp = _load_map(args.map, args.gamma) if args.map else None
    data = _load_data(args.data, mdp) if args.data else None
    if args.flavor == "exact" and mdp is None:
        raise ValidationError("--flavor exact requires --map")
    if args.flavor != "exact" and data is None:
        raise ValidationError(f"--flavor {args.flavor} requires --data")
    mixture, trace = run(data, config, mdp_handle=mdp)
    if args.trace_out:
        write_trace_csv(trace, args.trace_out)
    if args.policy_out:
        if args.derandomize:
            policy, _ = derandomize(mixture, config.tau)
            save_policy(policy, args.policy_out)
        else:
            save_mixture(mixture, args.policy_out)
    return _finish(trace)


def _fitted_common(args):
    mdp = _load_map(args.map, args.gamma) if args.map else None
    data = _load_data(args.data, mdp)
    S, A = ((mdp.num_states, mdp.num_actions) if mdp
            else ds.implied_shape(data))
    template = QFunction.tabular_zeros(S, A)
    return data, mdp, template


def _cmd_fqe(args):
    data, mdp, template = _fitted_common(args)
    policy = load_policy(args.policy, *template.table.shape,
                         allow_mixture=False)
    est, _ = fqe(data, policy, _parse_cost(args.cost), args.iters, template,
                 gamma=args.gamma, mdp=mdp)
    print(f"estimate,{est:.17g}")
    return 0


def _cmd_fqi(args):
    data, mdp, template = _fitted_common(args)
    policy, _ = fqi(data, _parse_cost(args.cost), args.iters, template,
                    gamma=args.gamma, mdp=mdp)
    save_policy(policy, args.policy_out)
    return 0


def _cmd_lspi(args):
    data, mdp, _ = _fitted_common(args)
    if mdp is None:
        raise ValidationError("lspi needs --map to build one-hot features")
    features = one_hot_features(mdp)
    result = lspi(data, _parse_cost(args.cost), features, args.gamma,
                  eps_stop=args.eps, max_iters=args.iters, ridge=args.ridge)
    policy = lspi_policy(result.weights, features)
    save_policy(policy, args.policy_out)
    return 0 if result.converged else 2


def _cmd_oracle(args):
    mdp = _load_map(args.map, args.gamma)
    policy = load_policy(args.policy, mdp.num_states, mdp.num_actions)
    C, G = exact_policy_values(mdp, policy)
    header = "C" + "".join(f",G_{i + 1}" for i in range(mdp.m))
    ds.write_csv(sys.stdout, header, [[C], *([v] for v in G)])
    return 0


def _cmd_ope_compare(args):
    mdp = _load_map(args.map, args.gamma)
    data = _load_data(args.data, mdp)
    policy = load_policy(args.policy, mdp.num_states, mdp.num_actions,
                         allow_mixture=False)
    fractions = [float(v) for v in args.fractions.split(",")]
    if any(not 0 < f <= 1 for f in fractions):
        raise ValidationError("fractions must lie in (0, 1]")
    derived = np.random.SeedSequence([args.seed, _STREAM_OPE])
    config = OpeConfig(fqe_iters=args.iters,
                       seed=int(derived.generate_state(1)[0]))
    rows = ope_comparison(data, policy, mdp, fractions, args.trials, config)
    write_ope_report(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_frozenlake_experiment(args):
    import os
    tau = np.array([args.tau])
    config = LearnerConfig(B=args.B, eta=args.eta, omega=args.omega, tau=tau,
                           max_rounds=args.rounds, subroutine_flavor="fitted",
                           gamma=args.gamma)
    mdp = _load_map("8x8", args.gamma)
    behavior = ds.make_frozenlake_behavior(mdp, args.epsilon)
    rng = _stream(args.seed, _STREAM_COLLECT)
    data = ds.collect(mdp, behavior, args.trajs, args.horizon, rng)
    # The learner runs before any file is written, so a run that raises (on
    # an empty collection, say) leaves no output behind.
    mixture, trace = run(data, config, mdp_handle=mdp)

    os.makedirs(args.outdir, exist_ok=True)
    ds.save(data, os.path.join(args.outdir, "dataset.csv"))
    write_trace_csv(trace, os.path.join(args.outdir, "trace.csv"))
    save_mixture(mixture, os.path.join(args.outdir, "mixture.csv"))
    ds.write_csv(os.path.join(args.outdir, "values.csv"),
                 "member,weight,C_hat,G_hat_1",
                 (np.arange(len(mixture.members)), mixture.weights,
                  mixture.member_c_hat,
                  [g[0] for g in mixture.member_g_hat]))

    c_mix, g_mix = exact_policy_values(mdp, mixture)
    c_behavior, g_behavior = exact_policy_values(mdp, behavior)
    try:
        c_star, opt_mixture = exact_constrained_optimum(
            mdp, tau, args.B, args.eta, args.omega)
        _, g_star = exact_policy_values(mdp, opt_mixture)
        opt = [f"{c_star:.6g}", f"{g_star[0]:.6g}"]
    except ConvergenceError as exc:
        opt = [f"failed ({exc})", ""]
    ds.write_csv(os.path.join(args.outdir, "report.csv"),
                 "policy,exact_C,exact_G_1",
                 (["learned_mixture", "behavior", "exact_constrained_optimum"],
                  [f"{c_mix:.6g}", f"{c_behavior:.6g}", opt[0]],
                  [f"{g_mix[0]:.6g}", f"{g_behavior[0]:.6g}", opt[1]]))
    return _finish(trace, f" exact_C={c_mix:.6g} exact_G={g_mix[0]:.6g}")


def build_parser():
    parser = _Parser(
        prog="cbpl",
        description="Constrained batch policy learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="roll out the behavior policy")
    p.add_argument("--map", default="8x8")
    p.add_argument("--trajs", type=int, default=5000)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--epsilon", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("learn", help="run the constrained learner")
    p.add_argument("--data")
    p.add_argument("--map")
    p.add_argument("--tau", default="0.1")
    p.add_argument("--B", type=float, default=30.0)
    p.add_argument("--eta", type=float, default=50.0)
    p.add_argument("--omega", type=float, default=0.05)
    p.add_argument("--iters-fqi", type=int, metavar="K",
                   help="fitted flavor: at most K FQI sweeps (default 100)")
    p.add_argument("--iters-fqe", type=int, metavar="K",
                   help="fitted flavor: at most K FQE sweeps (default 100)")
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--dual", choices=["eg", "ogd"], default="eg")
    p.add_argument("--flavor", choices=["fitted", "lspi", "exact"],
                   default="fitted")
    p.add_argument("--trace-out")
    p.add_argument("--policy-out")
    p.add_argument("--derandomize", action="store_true")
    p.add_argument("--gamma", type=float, default=0.95)
    p.set_defaults(func=_cmd_learn)

    for name, func, needs_policy in (("fqe", _cmd_fqe, True),
                                     ("fqi", _cmd_fqi, False),
                                     ("lspi", _cmd_lspi, False)):
        p = sub.add_parser(name, help=f"run {name} on a dataset")
        p.add_argument("--data", required=True)
        p.add_argument("--map")
        p.add_argument("--cost", default="c")
        unit = "iterations" if name == "lspi" else "sweeps"
        p.add_argument("--iters", type=int, default=50 if name == "lspi" else 100,
                       metavar="K", help=f"at most K {unit} (default %(default)s)")
        if needs_policy:
            p.add_argument("--policy", required=True)
        else:
            p.add_argument("--policy-out")
        if name == "lspi":
            p.add_argument("--eps", type=float, default=1e-6)
            p.add_argument("--ridge", type=float, default=1e-8)
        p.add_argument("--gamma", type=float, default=0.95)
        p.set_defaults(func=func)

    p = sub.add_parser("oracle", help="exact policy values on a map")
    p.add_argument("--map", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--gamma", type=float, default=0.95)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ope-compare", help="subsampling estimator comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--fractions",
                   default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--iters", type=int, default=100, metavar="K",
                   help="at most K FQE sweeps per trial (default 100)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=0.95)
    p.set_defaults(func=_cmd_ope_compare)

    p = sub.add_parser("frozenlake-experiment",
                       help="end-to-end safety experiment pipeline")
    p.add_argument("--outdir", required=True)
    p.add_argument("--trajs", type=int, default=5000)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--epsilon", type=float, default=0.95)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--B", type=float, default=30.0)
    p.add_argument("--eta", type=float, default=50.0)
    p.add_argument("--omega", type=float, default=0.05)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=0.95)
    p.set_defaults(func=_cmd_frozenlake_experiment)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help exits inside parse_args
        return 1 if exc.code not in (0, None) else 0
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
