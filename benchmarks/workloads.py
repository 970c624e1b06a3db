"""The four workloads: the set-up that prepares each operation's inputs, the
timed operation, the reference computed apart from the program, and the
check of every output.

Set-up and operation call only cbpl's public functions, and call them
through their modules (``learner.run``, ``dataset.collect``) so that the
tracer's wrappers see them. Inputs depend on the seed alone; the exact
flavor takes no data, so ``exact-learn`` is the same for every seed.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cbpl import dataset, learner, mdp, ope, oracle

import oracles

GAMMA = 0.95
HORIZON = 200
B, OMEGA, TAU = 30.0, 0.05, 0.1
# Largest per-step constraint cost over 1 - gamma bounds every dual loss.
G_BAR = 1.0 / (1.0 - GAMMA)

# fitted-learn: the paper's safety experiment, as in test_02.
FITTED_TRAJECTORIES, FITTED_EPSILON, FITTED_ETA, FITTED_MAX_ROUNDS = 5000, 0.95, 50.0, 100
# exact-learn: the step size and round cap of the average-regret bound, as in test_01.
EXACT_ETA = OMEGA / (4 * G_BAR ** 2 * B)
EXACT_CAP = math.ceil(16 * B ** 2 * G_BAR ** 2 * math.log(2) / OMEGA ** 2)
# ope-compare: test_08's protocol with fewer trials per fraction.
OPE_TRAJECTORIES, OPE_EPSILON, OPE_FQE_ITERS = 5000, 0.5, 100
OPE_FRACTIONS = tuple(round(0.1 * k, 1) for k in range(1, 11))
OPE_TRIALS = 2
# data-roundtrip: sized so that one collect + save + load takes seconds.
ROUNDTRIP_TRAJECTORIES, ROUNDTRIP_EPSILON = 10_000, 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable                    # seed -> inputs
    op: Callable                       # (inputs, workdir) -> output
    reference: Callable                # inputs -> reference, computed once, untimed
    check: Callable                    # (inputs, reference, output) -> (failures, facts)


def _frozenlake():
    return mdp.build_frozenlake(mdp.FROZENLAKE_8X8, gamma=GAMMA)


def _model_and_optimum(inputs):
    model = oracles.GridModel(mdp.FROZENLAKE_8X8, GAMMA)
    return {"model": model, "c_star": oracles.constrained_optimum(model, TAU)}


def _collect(epsilon, trajectories, seed):
    fl = _frozenlake()
    behavior = dataset.make_frozenlake_behavior(fl, epsilon)
    data = dataset.collect(fl, behavior, trajectories, HORIZON, np.random.default_rng(seed))
    return fl, data


def _mixture_facts(model, mixture, trace):
    c, g = oracles.mixture_values(model, [m.actions for m in mixture.members],
                                  mixture.weights)
    return {"rounds": int(trace.total_rounds), "trace_rows": len(trace.rounds),
            "final_gap": float(trace.gap[-1]), "exact_C": c, "exact_G": g}


def _fitted_setup(seed):
    fl, data = _collect(FITTED_EPSILON, FITTED_TRAJECTORIES, seed)
    return {"mdp": fl, "data": data, "seed": seed}


def _fitted_op(inputs, workdir):
    config = learner.LearnerConfig(B=B, eta=FITTED_ETA, omega=OMEGA, tau=[TAU],
                                   subroutine_flavor="fitted",
                                   max_rounds=FITTED_MAX_ROUNDS, seed=inputs["seed"])
    return learner.run(inputs["data"], config, mdp_handle=inputs["mdp"])


def _fitted_check(inputs, ref, output):
    mixture, trace = output
    fails = oracles.check_fitted(ref["model"], ref["c_star"], mixture, trace, OMEGA, TAU)
    facts = _mixture_facts(ref["model"], mixture, trace)
    facts.update(transitions=len(inputs["data"]), c_star=ref["c_star"])
    return fails, facts


def _exact_setup(seed):
    return {"mdp": _frozenlake()}


def _exact_op(inputs, workdir):
    config = learner.LearnerConfig(B=B, eta=EXACT_ETA, omega=OMEGA, tau=[TAU],
                                   subroutine_flavor="exact", max_rounds=EXACT_CAP)
    return learner.run(None, config, mdp_handle=inputs["mdp"])


def _exact_check(inputs, ref, output):
    mixture, trace = output
    fails = oracles.check_exact(ref["model"], ref["c_star"], mixture, trace, B,
                                EXACT_ETA, OMEGA, TAU, G_BAR, EXACT_CAP)
    facts = _mixture_facts(ref["model"], mixture, trace)
    facts.update(stride=int(trace.stride), c_star=ref["c_star"])
    return fails, facts


def _ope_setup(seed):
    fl, data = _collect(OPE_EPSILON, OPE_TRAJECTORIES, seed)
    policy = oracle.ExactSolver(fl).best_response(np.array([1e6]))
    return {"mdp": fl, "data": data, "policy": policy, "seed": seed}


def _ope_op(inputs, workdir):
    config = ope.OpeConfig(fqe_iters=OPE_FQE_ITERS, seed=inputs["seed"], jobs=1)
    return ope.ope_comparison(inputs["data"], inputs["policy"], inputs["mdp"],
                              list(OPE_FRACTIONS), OPE_TRIALS, config)


def _ope_reference(inputs):
    model = oracles.GridModel(mdp.FROZENLAKE_8X8, GAMMA)
    actions = inputs["policy"].actions
    cols = oracles.dataset_columns(inputs["data"])
    fqe_est, q = oracles.fqe_reference(cols, actions, GAMMA, OPE_FQE_ITERS,
                                       model.num_states, model.num_actions, model.start)
    pdis, dr, wdr = oracles.importance_estimates(cols, actions, q, GAMMA)
    return {"estimates": {"fqe": fqe_est, "pdis": pdis, "dr": dr, "wdr": wdr},
            "exact": oracles.policy_values(model, actions)[0]}


def _ope_check(inputs, ref, rows):
    fails = oracles.check_ope(rows, OPE_FRACTIONS, OPE_TRIALS, ref["estimates"], ref["exact"])
    facts = {"rows": len(rows), "transitions": len(inputs["data"]),
             "exact_C": ref["exact"], **ref["estimates"]}
    return fails, facts


def _roundtrip_setup(seed):
    fl = _frozenlake()
    return {"mdp": fl, "behavior": dataset.make_frozenlake_behavior(fl, ROUNDTRIP_EPSILON),
            "seed": seed}


def _roundtrip_op(inputs, workdir):
    data = dataset.collect(inputs["mdp"], inputs["behavior"], ROUNDTRIP_TRAJECTORIES,
                           HORIZON, np.random.default_rng(inputs["seed"]))
    path = workdir / "roundtrip.csv"
    dataset.save(data, path)
    return data, dataset.load(path), path


def _roundtrip_reference(inputs):
    return {"model": oracles.GridModel(mdp.FROZENLAKE_8X8, GAMMA), "digests": []}


def _roundtrip_check(inputs, ref, output):
    collected, loaded, path = output
    ref["digests"].append(hashlib.sha256(path.read_bytes()).hexdigest())
    fails = oracles.check_roundtrip(
        ref["model"], oracles.dataset_columns(collected), oracles.dataset_columns(loaded),
        ref["digests"], ROUNDTRIP_TRAJECTORIES, HORIZON)
    facts = {"transitions": len(collected), "csv_bytes": path.stat().st_size,
             "sha256": ref["digests"][-1]}
    return fails, facts


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("fitted-learn", _fitted_setup, _fitted_op, _model_and_optimum, _fitted_check),
    Workload("exact-learn", _exact_setup, _exact_op, _model_and_optimum, _exact_check),
    Workload("ope-compare", _ope_setup, _ope_op, _ope_reference, _ope_check),
    Workload("data-roundtrip", _roundtrip_setup, _roundtrip_op, _roundtrip_reference,
             _roundtrip_check),
)}
