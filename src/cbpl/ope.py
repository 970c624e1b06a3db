"""Importance-sampling off-policy value estimators (PDIS, doubly robust,
weighted doubly robust) and the subsampling comparison protocol against the
exact oracle."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .batchrl import CostSelector, fqe
from .dataset import subsample
from .funcapprox import QFunction
from .mdp import StochasticPolicy, as_stochastic
from .oracle import exact_policy_values


@dataclass
class OpeConfig:
    fqe_iters: int = 100
    ridge: float = 1e-8
    seed: int = 0
    jobs: int = 1


def _eval_probs(eval_policy, num_actions):
    return as_stochastic(eval_policy, num_actions)


def _trajectory_arrays(dataset):
    """Per-trajectory (x, a, c, behavior_prob) views."""
    out = []
    for _, s, e in dataset.trajectory_slices():
        out.append((dataset.x[s:e], dataset.a[s:e], dataset.c[s:e],
                    dataset.behavior_prob[s:e]))
    return out


def pdis(dataset, eval_policy, gamma):
    """Per-decision importance sampling: mean over trajectories of
    sum_t gamma^t (prod_{s<=t} rho_s) c_t with rho = pi_e / pi_D."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if dataset.behavior_prob.min() <= 0:
        raise ValueError("behavior propensities must be positive")
    num_actions = int(dataset.a.max()) + 1
    probs = _eval_probs(eval_policy, max(num_actions, _policy_actions(eval_policy)))
    total = 0.0
    trajs = _trajectory_arrays(dataset)
    for x, a, c, bp in trajs:
        rho = probs[x, a] / bp
        weights = np.cumprod(rho)
        discounts = gamma ** np.arange(len(c))
        total += float(np.sum(discounts * weights * c))
    return total / len(trajs)


def _policy_actions(policy):
    if isinstance(policy, StochasticPolicy):
        return policy.probs.shape[1]
    return int(policy.actions.max()) + 1


def _q_and_v(q_hat, probs):
    """Q_hat as an (S, A) table and V_hat(x) = E_{a~pi_e} Q_hat(x, a) per
    state; estimators gather both at the sampled steps."""
    vals = q_hat.values()
    return vals, np.einsum("xa,xa->x", probs, vals)


def doubly_robust(dataset, eval_policy, q_hat, gamma):
    """Recursive doubly robust estimator with control variates from q_hat:
    DR_t = V(x_t) + rho_t (c_t + gamma DR_{t+1} - Q(x_t, a_t))."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    probs = _eval_probs(eval_policy, q_hat.values().shape[1])
    vals, v = _q_and_v(q_hat, probs)
    total = 0.0
    trajs = _trajectory_arrays(dataset)
    for x, a, c, bp in trajs:
        rho = probs[x, a] / bp
        q_xa, v_x = vals[x, a], v[x]
        dr = 0.0
        for t in range(len(c) - 1, -1, -1):
            dr = v_x[t] + rho[t] * (c[t] + gamma * dr - q_xa[t])
        total += float(dr)
    return total / len(trajs)


def weighted_doubly_robust(dataset, eval_policy, q_hat, gamma):
    """Doubly robust with per-timestep self-normalized cumulative weights.

    Trajectories shorter than the horizon are padded with an absorbing step
    (rho = 1, zero cost and control variates). If every cumulative weight at
    some timestep is zero, that timestep contributes only its
    control-variate term.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    probs = _eval_probs(eval_policy, q_hat.values().shape[1])
    vals, v = _q_and_v(q_hat, probs)
    trajs = _trajectory_arrays(dataset)
    n = len(trajs)
    horizon = max(len(c) for _, _, c, _ in trajs)

    cum_w = np.ones((n, horizon))     # prod_{s<=t} rho_s, padded flat
    costs = np.zeros((n, horizon))
    q_mat = np.zeros((n, horizon))
    v_mat = np.zeros((n, horizon))
    for i, (x, a, c, bp) in enumerate(trajs):
        L = len(c)
        rho = probs[x, a] / bp
        cw = np.cumprod(rho)
        cum_w[i, :L] = cw
        cum_w[i, L:] = cw[-1] if L else 1.0
        costs[i, :L] = c
        q_mat[i, :L] = vals[x, a]
        v_mat[i, :L] = v[x]

    sums = cum_w.sum(axis=0)
    w = np.divide(cum_w, sums[None, :], out=np.zeros_like(cum_w),
                  where=sums[None, :] > 0)
    w_prev = np.concatenate([np.full((n, 1), 1.0 / n), w[:, :-1]], axis=1)
    discounts = gamma ** np.arange(horizon)
    correction = np.sum(discounts * (w * (costs - q_mat) + w_prev * v_mat))
    return float(correction)


def ope_comparison(dataset, eval_policy, mdp, fractions, trials, config=None):
    """The subsampling protocol: for each fraction x trial, run FQE, PDIS,
    DR, and WDR on a trajectory subsample and record absolute errors against
    the exact value. Returns rows of
    (method, fraction, trial, estimate, abs_error)."""
    config = config or OpeConfig()
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
                               config.fqe_iters, template, ridge=config.ridge,
                               gamma=mdp.gamma, mdp=mdp)
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
