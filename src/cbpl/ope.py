"""Importance-sampling off-policy value estimators (PDIS, doubly robust,
weighted doubly robust) and the subsampling comparison protocol against the
exact oracle."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .batchrl import CostSelector, fqe
from .dataset import check_indices, subsample
from .funcapprox import QFunction
from .mdp import StochasticPolicy, as_stochastic
from .oracle import exact_policy_values


@dataclass
class OpeConfig:
    fqe_iters: int = 100
    seed: int = 0
    jobs: int = 1


def _weighted_sum(dataset, eval_policy, gamma, q_hat=None, normalized=False):
    """sum_t gamma^t [w_t (c_t - Q_t) + w_{t-1} V_t] over the padded
    (trajectories x horizon) matrix of the dataset, with w_{-1} = 1/n.

    w_t is the cumulative ratio prod_{s<=t} pi_e(a_s|x_s) / pi_D(a_s|x_s)
    divided by n, or, normalized, by its sum over the trajectories at t
    (0 where that sum is 0). The ratio carries past each trajectory's end,
    where c, Q and V are 0. Q = Q_hat(x_t, a_t) and V = E_{a~pi_e}
    Q_hat(x_t, a); without q_hat both are 0.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if q_hat is not None:
        vals = q_hat.values()
    elif isinstance(eval_policy, StochasticPolicy):
        vals = np.zeros(eval_policy.probs.shape)
    else:  # a deterministic policy does not say how many actions exist
        vals = np.zeros((len(eval_policy.actions),
                         max(dataset.a.max(), eval_policy.actions.max()) + 1))
    check_indices(dataset, *vals.shape)
    probs = as_stochastic(eval_policy, vals.shape[1])
    v = np.einsum("xa,xa->x", probs, vals)
    starts, stops = dataset.trajectory_bounds()
    n, horizon = len(starts), int((stops - starts).max())
    row = np.repeat(np.arange(n), stops - starts)
    col = np.arange(len(dataset)) - starts[row]
    x, a = dataset.x, dataset.a

    def padded(values, fill=0.0):
        out = np.full((n, horizon), fill)
        out[row, col] = values
        return out

    w = np.cumprod(padded(probs[x, a] / dataset.behavior_prob, 1.0), axis=1)
    if normalized:
        sums = w.sum(axis=0)
        w = np.divide(w, sums, out=np.zeros_like(w), where=sums > 0)
    else:
        w /= n
    w_prev = np.concatenate([np.full((n, 1), 1.0 / n), w[:, :-1]], axis=1)
    terms = w * (padded(dataset.c) - padded(vals[x, a])) + w_prev * padded(v[x])
    return float(np.sum(gamma ** np.arange(horizon) * terms))


def pdis(dataset, eval_policy, gamma):
    """Per-decision importance sampling: mean over trajectories of
    sum_t gamma^t (prod_{s<=t} rho_s) c_t with rho = pi_e / pi_D."""
    return _weighted_sum(dataset, eval_policy, gamma)


def doubly_robust(dataset, eval_policy, q_hat, gamma):
    """Doubly robust with control variates from q_hat, the unrolled form of
    the recursion DR_t = V(x_t) + rho_t (c_t + gamma DR_{t+1} - Q(x_t, a_t))."""
    return _weighted_sum(dataset, eval_policy, gamma, q_hat)


def weighted_doubly_robust(dataset, eval_policy, q_hat, gamma):
    """Doubly robust with per-timestep self-normalized cumulative weights; a
    timestep whose weights are all 0 contributes only its control variate."""
    return _weighted_sum(dataset, eval_policy, gamma, q_hat, normalized=True)


def ope_comparison(dataset, eval_policy, mdp, fractions, trials, config=None):
    """The subsampling protocol: for each fraction x trial, run FQE, PDIS,
    DR, and WDR on a trajectory subsample and record absolute errors against
    the exact value. Returns rows of
    (method, fraction, trial, estimate, abs_error)."""
    config = config or OpeConfig()
    check_indices(dataset, mdp.num_states, mdp.num_actions)
    exact_c, _ = exact_policy_values(mdp, eval_policy)
    template = QFunction.tabular_zeros(mdp.num_states, mdp.num_actions)
    root = np.random.SeedSequence(config.seed)
    tasks = [(fi, frac, trial)
             for fi, frac in enumerate(fractions) for trial in range(trials)]
    seeds = root.spawn(len(tasks))

    def run_one(args):
        (fi, frac, trial), seed = args
        rng = np.random.default_rng(seed)
        sub = subsample(dataset, frac, rng)
        fqe_est, fqe_run = fqe(sub, eval_policy, CostSelector.primary(),
                               config.fqe_iters, template, gamma=mdp.gamma,
                               mdp=mdp)
        q_hat = fqe_run.q_final
        pdis_est = pdis(sub, eval_policy, mdp.gamma)
        dr_est = doubly_robust(sub, eval_policy, q_hat, mdp.gamma)
        wdr_est = weighted_doubly_robust(sub, eval_policy, q_hat, mdp.gamma)
        return [(name, frac, trial, est, abs(est - exact_c))
                for name, est in (("fqe", fqe_est), ("pdis", pdis_est),
                                  ("dr", dr_est), ("wdr", wdr_est))]

    work = list(zip(tasks, seeds))
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(run_one, work))
    else:
        results = [run_one(item) for item in work]
    rows = [row for group in results for row in group]
    return rows


def write_ope_report(rows, path):
    """Report CSV: method,fraction,trial,estimate,abs_error."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,fraction,trial,estimate,abs_error\n")
        for method, frac, trial, est, err in rows:
            fh.write(f"{method},{frac:.17g},{trial},{est:.17g},{err:.17g}\n")
