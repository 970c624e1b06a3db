"""Importance-sampling off-policy value estimators (PDIS, doubly robust,
weighted doubly robust), taken together in one walk over the trajectories,
and the subsampling comparison protocol against the exact oracle, whose
trials are draws of trajectories from the one dataset."""

from dataclasses import dataclass

import numpy as np

from .batchrl import CostSelector, EmpiricalModel, fqe
# subsample is not called here; benchmarks/tracer.py wraps it by this name.
from .dataset import (check_indices, draw_trajectories,  # noqa: F401
                      subsample, write_csv)
from .funcapprox import QFunction
from .mdp import StochasticPolicy, as_stochastic
from .oracle import exact_policy_values


@dataclass
class OpeConfig:
    fqe_iters: int = 100
    seed: int = 0
    # Not read: one thread runs the trials as fast as two (the GIL is held
    # through a trial's small array operations). Kept for callers that pass it.
    jobs: int = 1


def _ratios(dataset, eval_policy, num_actions):
    """The policy's (S, A) table, and each row's flat (x, a) index and ratio
    rho = pi_e(a|x) / pi_D(a|x)."""
    probs = as_stochastic(eval_policy, num_actions)
    cell = dataset.x * num_actions + dataset.a
    return probs, cell, probs.take(cell) / dataset.behavior_prob


def _walk(dataset, ratios, q, trajs, gamma):
    """(PDIS, DR, WDR) of the trajectories trajs (indices into the dataset's
    trajectory_bounds): each is sum_t gamma^t [w_t (c_t - Q_t) + w_{t-1} V_t]
    with w_{-1} = 1/n, Q = q(x_t, a_t) and V = E_{a~pi_e} q(x_t, a); PDIS
    takes Q = V = 0.

    w_t is the cumulative ratio prod_{s<=t} rho_s over n, or for WDR over
    its sum across the trajectories at t (0 where that sum is 0). The ratio
    carries past each trajectory's end, where c, Q and V are 0. Taken
    longest first (stably), the trajectories running at step t are a prefix
    of that order, so the walk is O(transitions + H); an ended trajectory's
    final ratio enters WDR's normalizer as a running sum.
    """
    probs, cell, rho = ratios
    v = np.einsum("xa,xa->x", probs, q)
    starts, stops = dataset.trajectory_bounds()
    first, lengths = starts[trajs], (stops - starts)[trajs]
    n = len(first)
    order = np.argsort(-lengths, kind="stable")
    first = first[order]
    # live[t]: the number of trajectories longer than t, a prefix of order.
    live = np.searchsorted(-lengths[order], -np.arange(lengths[order[0]]))
    cum = np.ones(n)
    w_dr = w_wdr = np.full(n, 1.0 / n)
    ended = pdis = dr = wdr = 0.0
    for t, k in enumerate(live):
        ended += cum[k:].sum()
        rows = first[:k] + t
        cum = cum[:k] * rho.take(rows)
        c = dataset.c.take(rows)
        dev = c - q.take(cell.take(rows))
        base = v.take(dataset.x.take(rows))
        norm = cum.sum() + ended
        w, w_n = cum / n, cum / norm if norm > 0 else np.zeros(k)
        discount = gamma ** t
        pdis += discount * (w @ c)
        dr += discount * (w @ dev + w_dr[:k] @ base)
        wdr += discount * (w_n @ dev + w_wdr[:k] @ base)
        w_dr, w_wdr = w, w_n
    return float(pdis), float(dr), float(wdr)


def _estimates(dataset, eval_policy, gamma, q_hat=None):
    """(PDIS, DR, WDR) of the whole dataset; without q_hat, Q = 0."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if q_hat is not None:
        q = q_hat.values()
    elif isinstance(eval_policy, StochasticPolicy):
        q = np.zeros(eval_policy.probs.shape)
    else:  # a deterministic policy does not say how many actions exist
        q = np.zeros((len(eval_policy.actions),
                      max(dataset.a.max(), eval_policy.actions.max()) + 1))
    check_indices(dataset, *q.shape)
    ratios = _ratios(dataset, eval_policy, q.shape[1])
    return _walk(dataset, ratios, q, slice(None), gamma)


def pdis(dataset, eval_policy, gamma):
    """Per-decision importance sampling: mean over trajectories of
    sum_t gamma^t (prod_{s<=t} rho_s) c_t with rho = pi_e / pi_D.

    A DeterministicPolicy carries no action count, so pdis of one checks
    only that every a is nonnegative, and a row whose a is not one of the
    map's actions gets ratio 0. Callers must check a against the map first
    (check_indices), as ope_comparison and the CLI do."""
    return _estimates(dataset, eval_policy, gamma)[0]


def doubly_robust(dataset, eval_policy, q_hat, gamma):
    """Doubly robust with control variates from q_hat, the unrolled form of
    the recursion DR_t = V(x_t) + rho_t (c_t + gamma DR_{t+1} - Q(x_t, a_t))."""
    return _estimates(dataset, eval_policy, gamma, q_hat)[1]


def weighted_doubly_robust(dataset, eval_policy, q_hat, gamma):
    """Doubly robust with per-timestep self-normalized cumulative weights; a
    timestep whose weights are all 0 contributes only its control variate."""
    return _estimates(dataset, eval_policy, gamma, q_hat)[2]


def ope_comparison(dataset, eval_policy, mdp, fractions, trials, config=None):
    """The subsampling protocol: for each fraction x trial, draw trajectories
    as subsample does, run FQE on their model and PDIS, DR and WDR on their
    rows, and record absolute errors against the exact value. Returns rows
    of (method, fraction, trial, estimate, abs_error)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    config = config or OpeConfig()
    check_indices(dataset, mdp.num_states, mdp.num_actions)
    exact_c, _ = exact_policy_values(mdp, eval_policy)
    template = QFunction.tabular_zeros(mdp.num_states, mdp.num_actions)
    ratios = _ratios(dataset, eval_policy, mdp.num_actions)
    model, row_ids = EmpiricalModel.with_row_ids(dataset)
    tasks = [(frac, trial) for frac in fractions for trial in range(trials)]
    seeds = np.random.SeedSequence(config.seed).spawn(len(tasks))

    def run_one(frac, trial, seed):
        trajs, rows = draw_trajectories(dataset, frac,
                                        np.random.default_rng(seed))
        trial_model = model.restrict(row_ids[rows],
                                     dataset.x[rows[dataset.t[rows] == 0]])
        fqe_est, fqe_run = fqe(trial_model, eval_policy,
                               CostSelector.primary(), config.fqe_iters,
                               template, gamma=mdp.gamma, mdp=mdp)
        estimates = _walk(dataset, ratios, fqe_run.q_final.values(), trajs,
                          mdp.gamma)
        return [(name, frac, trial, est, abs(est - exact_c))
                for name, est in zip(("fqe", "pdis", "dr", "wdr"),
                                     (fqe_est, *estimates))]

    return [row for (frac, trial), seed in zip(tasks, seeds)
            for row in run_one(frac, trial, seed)]


def write_ope_report(rows, path):
    """Report CSV: method,fraction,trial,estimate,abs_error."""
    columns = list(zip(*rows)) or [()] * 5  # no rows: five empty columns
    write_csv(path, "method,fraction,trial,estimate,abs_error", columns)
