"""The constrained learner: a primal-dual game between a best-response
policy player and a no-regret dual player, with duality-gap termination.

Subroutine flavors: fitted (FQI best response + FQE certification), lspi
(LSPI best response + policy-form LSTDQ certification), and exact (tabular
oracles). Member policies repeat across rounds extremely often, so mixtures
store unique policies with multiplicities and every evaluation is cached by
policy.

When the exact flavor runs with a single constraint and EG duals, long
stretches of rounds change nothing but the multiplier; those stretches are
advanced in closed-form blocks (valid because best-response regions are
intervals on the 1-d multiplier line, so endpoint checks certify the whole
block) while still recording the per-round trace quantities.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .batchrl import (CostSelector, EmpiricalModel, _initial_distribution,
                      fqe, fqi, lspi, lspi_policy, lstdq_policy)
from .funcapprox import QFunction, one_hot_features
from .mdp import DeterministicPolicy
from .onlineopt import (DualVector, EG_FLAVOR, OGD_FLAVOR, augmented_loss,
                        eg_init, eg_update, ogd_init, ogd_update)
from .oracle import ExactSolver


class ConvergenceError(RuntimeError):
    """Raised when the duality gap never reaches omega; carries partial results."""

    def __init__(self, message, mixture=None, trace=None):
        super().__init__(message)
        self.mixture = mixture
        self.trace = trace


@dataclass
class LearnerConfig:
    B: float
    eta: float
    omega: float
    tau: np.ndarray
    K_fqi: int = 100
    K_fqe: int = 100
    max_rounds: int = None
    ridge: float = 1e-8
    seed: int = 0
    dual_flavor: str = EG_FLAVOR
    subroutine_flavor: str = "fitted"
    gamma: float = 0.95
    g_bar: float = None
    dual_sign: float = 1.0  # +1: dual ascent (mass toward violated constraints)
    lspi_eps: float = 1e-6
    lspi_max_iters: int = 50
    trace_limit: int = 200_000

    def __post_init__(self):
        self.tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if self.B <= 0 or self.eta <= 0 or self.omega <= 0:
            raise ValueError("B, eta, omega must be positive")
        if np.any(self.tau < 0):
            raise ValueError("tau entries must be nonnegative")
        if self.dual_flavor not in (EG_FLAVOR, OGD_FLAVOR):
            raise ValueError(f"unknown dual flavor {self.dual_flavor!r}")
        if self.subroutine_flavor not in ("fitted", "lspi", "exact"):
            raise ValueError(f"unknown subroutine flavor {self.subroutine_flavor!r}")


class MixturePolicy:
    """Uniform mixture over best-response policies.

    Stored run-length encoded: unique consecutive policies with counts.
    weights are counts / total rounds; member value estimates align with
    members.
    """

    def __init__(self, members, counts, member_c_hat, member_g_hat):
        self.members = list(members)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.member_c_hat = [float(v) for v in member_c_hat]
        self.member_g_hat = [np.asarray(v, dtype=float) for v in member_g_hat]
        if not (len(self.members) == len(self.counts)
                == len(self.member_c_hat) == len(self.member_g_hat)):
            raise ValueError("misaligned mixture components")

    @property
    def weights(self):
        return self.counts / self.counts.sum()

    @property
    def num_rounds(self):
        return int(self.counts.sum())


@dataclass
class RunTrace:
    rounds: np.ndarray
    lambdas: np.ndarray
    c_hat_member: np.ndarray
    g_hat_member: np.ndarray
    c_hat_mix: np.ndarray
    g_hat_mix: np.ndarray
    l_max: np.ndarray
    l_min: np.ndarray
    l_mid: np.ndarray
    gap: np.ndarray
    converged: bool
    termination_reason: str
    total_rounds: int
    stride: int
    bound_excess_max: float = field(default=float("nan"))


class _TraceBuffer:
    """Per-round records with automatic decimation beyond a record cap.

    Keeps every stride-th round (stride doubles on overflow) plus the final
    round, so small runs retain full fidelity.
    """

    def __init__(self, limit):
        self.limit = max(int(limit), 16)
        self.stride = 1
        self.rows = []  # (t, row-array)
        self.final = None

    def _compact(self):
        while len(self.rows) > self.limit:
            self.stride *= 2
            self.rows = [r for r in self.rows if r[0] % self.stride == 0]

    def append(self, t, row):
        self.final = (t, row)
        if t % self.stride == 0:
            self.rows.append((t, row))
            self._compact()

    def append_block(self, t_arr, rows, final):
        """Bulk append of pre-filtered (t, row) records; final is the last
        (t, row) of the block whether or not it passed the stride filter."""
        self.final = final
        keep = (t_arr % self.stride) == 0
        self.rows.extend(zip(t_arr[keep].tolist(), rows[keep]))
        self._compact()

    def finalize(self):
        rows = list(self.rows)
        if self.final is not None and (not rows or rows[-1][0] != self.final[0]):
            rows.append(self.final)
        ts = np.array([r[0] for r in rows], dtype=np.int64)
        mat = np.array([r[1] for r in rows], dtype=float)
        return ts, mat


class _ExactSub:
    def __init__(self, mdp):
        self.solver = ExactSolver(mdp)

    def best_response(self, lam_m):
        return self.solver.best_response(lam_m)

    def evaluate(self, policy):
        return self.solver.policy_values(policy)


class _FittedSub:
    def __init__(self, dataset, mdp, config, num_states, num_actions):
        # FQI and FQE sweep the deduplicated rows; built once per subroutine.
        self.model = EmpiricalModel.from_dataset(dataset)
        self.mdp = mdp
        self.config = config
        self.template = QFunction.tabular_zeros(num_states, num_actions)
        self.gamma = mdp.gamma if mdp is not None else config.gamma
        self._eval_cache = {}

    def best_response(self, lam_m):
        cost = (CostSelector.scalarized(lam_m) if len(lam_m)
                else CostSelector.primary())
        policy, _ = fqi(self.model, cost, self.config.K_fqi, self.template,
                        ridge=self.config.ridge, gamma=self.gamma, mdp=self.mdp)
        return policy

    def evaluate(self, policy):
        key = policy.actions.tobytes()
        cached = self._eval_cache.get(key)
        if cached is not None:
            return cached
        c_hat, _ = fqe(self.model, policy, CostSelector.primary(),
                       self.config.K_fqe, self.template,
                       ridge=self.config.ridge, gamma=self.gamma, mdp=self.mdp)
        g_hat = np.array([
            fqe(self.model, policy, CostSelector.constraint(i),
                self.config.K_fqe, self.template, ridge=self.config.ridge,
                gamma=self.gamma, mdp=self.mdp)[0]
            for i in range(self.model.m)])
        self._eval_cache[key] = (c_hat, g_hat)
        return c_hat, g_hat


class _LspiSub:
    def __init__(self, dataset, mdp, config, num_states, num_actions):
        self.dataset = dataset
        self.mdp = mdp
        self.config = config
        self.num_states = num_states
        self.num_actions = num_actions
        if mdp is not None:
            self.features = one_hot_features(mdp)
        else:
            phi = np.eye(num_states * num_actions).reshape(
                num_states, num_actions, num_states * num_actions)
            from .funcapprox import FeatureMap
            self.features = FeatureMap(phi)
        self.gamma = mdp.gamma if mdp is not None else config.gamma
        self._eval_cache = {}
        self._chi = None

    def _initial_dist(self):
        if self._chi is None:
            starts = self.dataset.x[self.dataset.t == 0]
            self._chi = _initial_distribution(starts, self.mdp,
                                              self.num_states)
        return self._chi

    def best_response(self, lam_m):
        cost = (CostSelector.scalarized(lam_m) if len(lam_m)
                else CostSelector.primary())
        result = lspi(self.dataset, cost, self.features, self.gamma,
                      eps_stop=self.config.lspi_eps,
                      max_iters=self.config.lspi_max_iters,
                      ridge=self.config.ridge)
        return lspi_policy(result.weights, self.features)

    def evaluate(self, policy):
        key = policy.actions.tobytes()
        cached = self._eval_cache.get(key)
        if cached is not None:
            return cached
        chi = self._initial_dist()
        idx = np.arange(self.num_states)

        def channel_value(cost):
            w = lstdq_policy(self.dataset, policy, cost, self.features,
                             self.gamma, ridge=self.config.ridge)
            q_table = self.features.phi @ w
            return float(chi @ q_table[idx, policy.actions])

        c_hat = channel_value(CostSelector.primary())
        g_hat = np.array([channel_value(CostSelector.constraint(i))
                          for i in range(self.dataset.m)])
        self._eval_cache[key] = (c_hat, g_hat)
        return c_hat, g_hat


def lagrangian_max(c_hat, g_hat, tau, B, flavor=EG_FLAVOR):
    """max of C + lam.(G - tau) over the dual player's multiplier set.

    EG: the l1-budget simplex with a slack coordinate, closed form
    C + B * max(0, max_i(G_i - tau_i)). OGD: the nonnegative part of the l2
    ball of radius B, closed form C + B * ||(G - tau)_+||_2.
    """
    diff = np.asarray(g_hat, dtype=float) - np.asarray(tau, dtype=float)
    excess = np.maximum(diff, 0.0)
    if flavor == OGD_FLAVOR:
        worst = float(np.linalg.norm(excess))
    else:
        worst = float(np.max(excess, initial=0.0))
    return float(c_hat) + float(B) * worst


def lagrangian_min(dataset, lambda_hat, config, mdp_handle=None):
    """Best response to a fixed multiplier and its Lagrangian value.

    Returns (L_min, pi_tilde) with
    L_min = C(pi~) + lam_hat.[(G(pi~) - tau), 0].
    """
    coords = np.asarray(getattr(lambda_hat, "coords", lambda_hat), dtype=float)
    m = len(config.tau)
    lam_m = coords[:m]
    sub = _make_subroutine(dataset, config, mdp_handle)
    pi_tilde = sub.best_response(lam_m)
    c_til, g_til = sub.evaluate(pi_tilde)
    l_min = c_til + float(lam_m @ (g_til - config.tau))
    return l_min, pi_tilde


def _make_subroutine(dataset, config, mdp_handle):
    if config.subroutine_flavor == "exact":
        if mdp_handle is None:
            raise ValueError("exact flavor requires an mdp handle")
        return _ExactSub(mdp_handle)
    if dataset is None or len(dataset) == 0:
        raise ValueError("fitted flavors require a nonempty dataset")
    if mdp_handle is not None:
        S, A = mdp_handle.num_states, mdp_handle.num_actions
    else:
        S = int(max(dataset.x.max(), dataset.x_next.max())) + 1
        A = int(dataset.a.max()) + 1
    if config.subroutine_flavor == "fitted":
        return _FittedSub(dataset, mdp_handle, config, S, A)
    return _LspiSub(dataset, mdp_handle, config, S, A)


def _default_g_bar(dataset, mdp_handle, config):
    gamma = mdp_handle.gamma if mdp_handle is not None else config.gamma
    if dataset is not None and len(dataset) and dataset.m:
        peak = float(np.abs(dataset.g).max())
    elif mdp_handle is not None and mdp_handle.m:
        peak = float(np.abs(mdp_handle.cost_g).max())
    else:
        peak = 0.0
    return peak / (1.0 - gamma)


def default_max_rounds(B, g_bar, omega, m):
    """Round cap 16 B^2 Gbar^2 log(m+1) / omega^2 from the convergence bound."""
    if m < 1 or g_bar <= 0:
        return 1000
    return int(math.ceil(16.0 * B * B * g_bar * g_bar * math.log(m + 1)
                         / (omega * omega)))


class _RunState:
    """Mutable accumulators shared by the generic loop and the block path."""

    def __init__(self, m, dim):
        self.t = 0
        self.sum_c = 0.0
        self.sum_g = np.zeros(m)
        self.sum_lam = np.zeros(dim)
        self.members = []
        self.counts = []
        self.member_c = []
        self.member_g = []

    def add_member(self, policy, c_hat, g_hat, repeat=1):
        key = policy.actions.tobytes()
        if self.members and self.members[-1].actions.tobytes() == key:
            self.counts[-1] += repeat
        else:
            self.members.append(policy)
            self.counts.append(repeat)
            self.member_c.append(c_hat)
            self.member_g.append(g_hat)
        self.t += repeat
        self.sum_c += repeat * c_hat
        self.sum_g += repeat * g_hat


def run(dataset, config, mdp_handle=None):
    """Run the primal-dual game loop; returns (MixturePolicy, RunTrace)."""
    m = len(config.tau)
    if dataset is not None and len(dataset) and dataset.m != m:
        raise ValueError("dataset constraint count does not match tau")
    sub = _make_subroutine(dataset, config, mdp_handle)
    g_bar = (config.g_bar if config.g_bar is not None
             else _default_g_bar(dataset, mdp_handle, config))
    max_rounds = (config.max_rounds if config.max_rounds is not None
                  else default_max_rounds(config.B, g_bar, config.omega, m))
    B, eta, omega, tau = config.B, config.eta, config.omega, config.tau
    is_eg = config.dual_flavor == EG_FLAVOR
    lam = eg_init(m, B) if is_eg else ogd_init(m, B)
    dim = len(lam.coords)
    log_mp1 = math.log(m + 1)

    state = _RunState(m, dim)
    trace_buf = _TraceBuffer(config.trace_limit)
    bound_excess = -math.inf
    converged = False
    prev_sig = None
    steady_streak = 0

    def record(t, lam_coords, c_t, g_t, c_mix, g_mix, l_max, l_min, l_mid):
        row = np.concatenate([lam_coords, [c_t], g_t, [c_mix], g_mix,
                              [l_max, l_min, l_mid, l_max - l_min]])
        trace_buf.append(t, row)

    def regret_gap_bound(t):
        return 2.0 * (B * log_mp1 / (eta * t) + eta * B * g_bar * g_bar)

    while state.t < max_rounds:
        # Closed-form block advance for steady exact/EG/m=1 stretches.
        if (steady_streak >= 2 and is_eg and m == 1
                and config.subroutine_flavor == "exact"):
            advanced, converged = _block_advance(
                state, sub, lam, prev_sig, config, g_bar, trace_buf,
                max_rounds)
            if advanced is not None:
                lam, block_excess = advanced
                bound_excess = max(bound_excess, block_excess)
                if converged:
                    break
                continue  # checks failed -> fall through to a generic round

        lam_m = lam.coords[:m]
        pi_t = sub.best_response(lam_m)
        c_t, g_t = sub.evaluate(pi_t)
        state.add_member(pi_t, c_t, g_t)
        state.sum_lam += lam.coords
        t = state.t
        c_mix = state.sum_c / t
        g_mix = state.sum_g / t
        lam_hat = state.sum_lam / t
        pi_til = sub.best_response(lam_hat[:m])
        c_til, g_til = sub.evaluate(pi_til)
        l_max = lagrangian_max(c_mix, g_mix, tau, B, config.dual_flavor)
        l_min = c_til + float(lam_hat[:m] @ (g_til - tau))
        l_mid = c_mix + float(lam_hat[:m] @ (g_mix - tau))
        gap = l_max - l_min
        record(t, lam.coords, c_t, g_t, c_mix, g_mix, l_max, l_min, l_mid)
        if m >= 1 and g_bar > 0:
            bound_excess = max(bound_excess, gap - regret_gap_bound(t))
        if gap <= omega:
            converged = True
            break

        sig = (pi_t.actions.tobytes(), pi_til.actions.tobytes(),
               c_t, tuple(g_t), c_til, tuple(g_til))
        steady_streak = steady_streak + 1 if sig == prev_sig else 1
        prev_sig = sig

        if is_eg:
            z = augmented_loss(g_t, tau)
            lam = eg_update(lam, -config.dual_sign * z, eta)
        else:
            lam = ogd_update(lam, config.dual_sign * (g_t - tau), eta)

    ts, mat = trace_buf.finalize()
    lam_cols = mat[:, :dim]
    c_member = mat[:, dim]
    g_member = mat[:, dim + 1:dim + 1 + m]
    c_mix_col = mat[:, dim + 1 + m]
    g_mix_col = mat[:, dim + 2 + m:dim + 2 + 2 * m]
    tail = mat[:, dim + 2 + 2 * m:]
    trace = RunTrace(
        rounds=ts, lambdas=lam_cols, c_hat_member=c_member,
        g_hat_member=g_member, c_hat_mix=c_mix_col, g_hat_mix=g_mix_col,
        l_max=tail[:, 0], l_min=tail[:, 1], l_mid=tail[:, 2], gap=tail[:, 3],
        converged=converged,
        termination_reason="gap <= omega" if converged else "max_rounds reached",
        total_rounds=state.t, stride=trace_buf.stride,
        bound_excess_max=bound_excess if bound_excess > -math.inf else float("nan"))
    mixture = MixturePolicy(state.members, state.counts,
                            state.member_c, state.member_g)
    return mixture, trace


def _block_advance(state, sub, lam, prev_sig, config, g_bar, trace_buf,
                   max_rounds):
    """Advance a steady stretch of EG rounds in closed form.

    Returns ((next_lam, bound_excess), converged) or (None, False) when the
    endpoint stability checks fail (caller falls back to a generic round).
    """
    B, eta, omega, tau = config.B, config.eta, config.omega, config.tau
    pi_bytes, til_bytes = prev_sig[0], prev_sig[1]
    pi_t = state.members[-1]
    c_t, g_t = sub.evaluate(pi_t)
    z = augmented_loss(g_t, tau)
    exponent = config.dual_sign * eta * z  # per-round log-multiplier

    t0 = state.t
    J = min(1 << 20, max_rounds - t0)
    if J < 1:
        return None, False

    # Single-column closed form for the two-coordinate simplex: the first
    # coordinate after j updates is B * sigmoid(-(d0 + j*de)) with logit gap
    # d = log(lam1/lam0) growing linearly.
    l0, l1 = np.log(np.maximum(lam.coords, 1e-300))
    d0 = l1 - l0
    de = exponent[1] - exponent[0]
    j = np.arange(J, dtype=float)
    d = d0 + j * de
    ez = np.exp(-np.abs(d))
    lam0 = B * np.where(d >= 0, ez / (1.0 + ez), 1.0 / (1.0 + ez))

    cum0 = np.cumsum(lam0)
    t_arr = t0 + 1 + np.arange(J)
    lam_hat0 = (state.sum_lam[0] + cum0) / t_arr

    # Stability certificates: best responses constant over the 1-d multiplier
    # ranges covered by the block (regions are intervals, so endpoints suffice).
    for v in (lam0.min(), lam0.max()):
        if sub.best_response(np.array([v])).actions.tobytes() != pi_bytes:
            return None, False
    pi_til = None
    for v in (lam_hat0.min(), lam_hat0.max()):
        cand = sub.best_response(np.array([v]))
        if cand.actions.tobytes() != til_bytes:
            return None, False
        pi_til = cand
    c_til, g_til = sub.evaluate(pi_til)

    c_mix = (state.sum_c + (1.0 + j) * c_t) / t_arr
    g_mix1 = (state.sum_g[0] + (1.0 + j) * g_t[0]) / t_arr
    l_max = c_mix + B * np.maximum(0.0, g_mix1 - tau[0])
    l_min = c_til + lam_hat0 * (g_til[0] - tau[0])
    gap = l_max - l_min

    hit = np.flatnonzero(gap <= omega)
    stop = int(hit[0]) + 1 if len(hit) else J
    converged = len(hit) > 0

    bound = 2.0 * (B * math.log(2.0) / (eta * t_arr[:stop])
                   + eta * B * g_bar * g_bar)
    excess = float(np.max(gap[:stop] - bound)) if g_bar > 0 else -math.inf

    def make_rows(idx):
        lam_hat_sel = lam_hat0[idx]
        g_sel = g_mix1[idx]
        c_sel = c_mix[idx]
        l_mid = c_sel + lam_hat_sel * (g_sel - tau[0])
        return np.column_stack([
            lam0[idx], B - lam0[idx],
            np.full(len(idx), c_t), np.full(len(idx), g_t[0]),
            c_sel, g_sel, l_max[idx], l_min[idx], l_mid, gap[idx]])

    keep = np.flatnonzero(t_arr[:stop] % trace_buf.stride == 0)
    last_idx = np.array([stop - 1])
    trace_buf.append_block(t_arr[keep], make_rows(keep),
                           final=(int(t_arr[stop - 1]), make_rows(last_idx)[0]))

    state.add_member(pi_t, c_t, g_t, repeat=stop)
    state.sum_lam[0] += cum0[stop - 1]
    state.sum_lam[1] += stop * B - cum0[stop - 1]
    if converged:
        v0 = lam0[stop - 1]
    else:
        # Multiplier entering round t0+stop+1.
        dn = d0 + stop * de
        ezn = math.exp(-abs(dn))
        v0 = B * (ezn / (1.0 + ezn) if dn >= 0 else 1.0 / (1.0 + ezn))
    coords = np.maximum([v0, B - v0], 1e-300)
    next_lam = DualVector(coords, B, EG_FLAVOR)
    return (next_lam, excess), converged


def regularized_one_shot(dataset, lam, config, mdp_handle=None):
    """One best-response solve on cost c + lam.g plus value certification.

    Returns (policy, C_hat, G_hat).
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    sub = _make_subroutine(dataset, config, mdp_handle)
    policy = sub.best_response(lam)
    c_hat, g_hat = sub.evaluate(policy)
    return policy, c_hat, g_hat


def regularization_grid(dataset, lams, config, mdp_handle=None):
    """regularized_one_shot over a grid of multipliers; returns a list of
    (lam, policy, C_hat, G_hat) in grid order."""
    sub = _make_subroutine(dataset, config, mdp_handle)
    out = []
    for lam in lams:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        policy = sub.best_response(lam)
        c_hat, g_hat = sub.evaluate(policy)
        out.append((lam, policy, c_hat, g_hat))
    return out


def derandomize(mixture, tau):
    """Pick the member with the best primary estimate among those whose
    estimated constraint values satisfy tau; falls back to the member with
    the smallest worst-case violation. Returns (policy, member_index)."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    feasible = [i for i, g in enumerate(mixture.member_g_hat)
                if np.all(g <= tau)]
    if feasible:
        best = min(feasible, key=lambda i: mixture.member_c_hat[i])
    else:
        best = min(range(len(mixture.members)),
                   key=lambda i: float(np.max(mixture.member_g_hat[i] - tau)))
    return mixture.members[best], best


def write_trace_csv(trace, path, m):
    """Trace CSV: round,lambda_1..lambda_dim,C_hat,G_1..G_m,L_max,L_min,gap."""
    dim = trace.lambdas.shape[1]
    header = ("round," + ",".join(f"lambda_{i + 1}" for i in range(dim))
              + ",C_hat" + "".join(f",G_{i + 1}" for i in range(m))
              + ",L_max,L_min,gap")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(len(trace.rounds)):
            parts = [str(int(trace.rounds[i]))]
            parts += [f"{v:.17g}" for v in trace.lambdas[i]]
            parts.append(f"{trace.c_hat_member[i]:.17g}")
            parts += [f"{v:.17g}" for v in trace.g_hat_member[i]]
            parts += [f"{trace.l_max[i]:.17g}", f"{trace.l_min[i]:.17g}",
                      f"{trace.gap[i]:.17g}"]
            fh.write(",".join(parts) + "\n")
