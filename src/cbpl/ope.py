"""Importance-sampling off-policy value estimators (PDIS, doubly robust,
weighted doubly robust) and the subsampling comparison protocol against the
exact oracle."""

from dataclasses import dataclass

import numpy as np

from .batchrl import CostSelector, EmpiricalModel, fqe
from .dataset import check_indices, subsample
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


def _weighted_sum(dataset, eval_policy, gamma, q_hat=None, normalized=False):
    """sum_t gamma^t [w_t (c_t - Q_t) + w_{t-1} V_t] over the trajectories
    of the dataset, with w_{-1} = 1/n.

    w_t is the cumulative ratio prod_{s<=t} pi_e(a_s|x_s) / pi_D(a_s|x_s)
    divided by n, or, normalized, by its sum over the trajectories at t
    (0 where that sum is 0). The ratio carries past each trajectory's end,
    where c, Q and V are 0. Q = Q_hat(x_t, a_t) and V = E_{a~pi_e}
    Q_hat(x_t, a); without q_hat both are 0.

    The trajectories are taken longest first, so the ones still running at
    step t are a prefix of that order and the work is O(transitions + H);
    an ended trajectory's final ratio enters the normalizer as a running sum.
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
    cell = dataset.x * vals.shape[1] + dataset.a  # flat (x, a) index
    rho = probs.take(cell) / dataset.behavior_prob
    dev = dataset.c - vals.take(cell)
    base = np.einsum("xa,xa->x", probs, vals).take(dataset.x)
    starts, stops = dataset.trajectory_bounds()
    n, lengths = len(starts), stops - starts
    order = np.argsort(-lengths, kind="stable")
    first = starts[order]
    # live[t]: the number of trajectories longer than t, a prefix of order.
    live = np.searchsorted(-lengths[order], -np.arange(lengths[order[0]]))
    cum = np.ones(n)
    w_prev = np.full(n, 1.0 / n)
    ended = total = 0.0
    for t, k in enumerate(live):
        if normalized:
            ended += cum[k:].sum()
        rows = first[:k] + t
        cum = cum[:k] * rho.take(rows)
        if not normalized:
            w = cum / n
        else:
            norm = cum.sum() + ended
            w = cum / norm if norm > 0 else np.zeros(k)
        total += gamma ** t * (w @ dev.take(rows)
                               + w_prev[:k] @ base.take(rows))
        w_prev = w
    return float(total)


def pdis(dataset, eval_policy, gamma):
    """Per-decision importance sampling: mean over trajectories of
    sum_t gamma^t (prod_{s<=t} rho_s) c_t with rho = pi_e / pi_D.

    A DeterministicPolicy carries no action count, so pdis of one checks
    only that every a is nonnegative, and a row whose a is not one of the
    map's actions gets ratio 0. Callers must check a against the map first
    (check_indices), as ope_comparison and the CLI do."""
    return _weighted_sum(dataset, eval_policy, gamma)


def doubly_robust(dataset, eval_policy, q_hat, gamma):
    """Doubly robust with control variates from q_hat, the unrolled form of
    the recursion DR_t = V(x_t) + rho_t (c_t + gamma DR_{t+1} - Q(x_t, a_t))."""
    return _weighted_sum(dataset, eval_policy, gamma, q_hat)


def weighted_doubly_robust(dataset, eval_policy, q_hat, gamma):
    """Doubly robust with per-timestep self-normalized cumulative weights; a
    timestep whose weights are all 0 contributes only its control variate."""
    return _weighted_sum(dataset, eval_policy, gamma, q_hat, normalized=True)


class _SubsampleModels:
    """EmpiricalModels of trajectory subsamples of one dataset, each taken
    from the dataset's own model by counting the model rows of its samples:
    the rows, order and counts of from_dataset, without a sort per trial."""

    def __init__(self, dataset):
        self.model, self.row_ids = EmpiricalModel.with_row_ids(dataset)
        self.first_row = dataset.trajectory_bounds()[0]
        ids = dataset.traj_id[self.first_row]
        self.by_id = np.argsort(ids)
        self.sorted_ids = ids[self.by_id]

    def __call__(self, sub):
        """The model of sub, whose trajectories are whole trajectories of
        the dataset."""
        starts, stops = sub.trajectory_bounds()
        k = self.by_id[np.searchsorted(self.sorted_ids, sub.traj_id[starts])]
        rows = np.arange(len(sub)) + np.repeat(self.first_row[k] - starts,
                                               stops - starts)
        return self.model.restrict(self.row_ids[rows], sub.x[sub.t == 0])


def ope_comparison(dataset, eval_policy, mdp, fractions, trials, config=None):
    """The subsampling protocol: for each fraction x trial, run FQE, PDIS,
    DR, and WDR on a trajectory subsample and record absolute errors against
    the exact value. Returns rows of
    (method, fraction, trial, estimate, abs_error)."""
    config = config or OpeConfig()
    check_indices(dataset, mdp.num_states, mdp.num_actions)
    exact_c, _ = exact_policy_values(mdp, eval_policy)
    template = QFunction.tabular_zeros(mdp.num_states, mdp.num_actions)
    models = _SubsampleModels(dataset)
    root = np.random.SeedSequence(config.seed)
    tasks = [(frac, trial) for frac in fractions for trial in range(trials)]
    seeds = root.spawn(len(tasks))

    def run_one(frac, trial, seed):
        rng = np.random.default_rng(seed)
        sub = subsample(dataset, frac, rng)
        fqe_est, fqe_run = fqe(models(sub), eval_policy, CostSelector.primary(),
                               config.fqe_iters, template, gamma=mdp.gamma,
                               mdp=mdp)
        q_hat = fqe_run.q_final
        pdis_est = pdis(sub, eval_policy, mdp.gamma)
        dr_est = doubly_robust(sub, eval_policy, q_hat, mdp.gamma)
        wdr_est = weighted_doubly_robust(sub, eval_policy, q_hat, mdp.gamma)
        return [(name, frac, trial, est, abs(est - exact_c))
                for name, est in (("fqe", fqe_est), ("pdis", pdis_est),
                                  ("dr", dr_est), ("wdr", wdr_est))]

    return [row for (frac, trial), seed in zip(tasks, seeds)
            for row in run_one(frac, trial, seed)]


def write_ope_report(rows, path):
    """Report CSV: method,fraction,trial,estimate,abs_error."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,fraction,trial,estimate,abs_error\n")
        for method, frac, trial, est, err in rows:
            fh.write(f"{method},{frac:.17g},{trial},{est:.17g},{err:.17g}\n")
