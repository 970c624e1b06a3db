"""Fitted batch solvers: Q evaluation (FQE), Q iteration (FQI), and the
least-squares policy-iteration pair LSTDQ/LSPI for general linear features.

Tabular LSPI runs as EmpiricalModel.solver, whose docstring says why; the
tests keep lstdq, lstdq_policy, lspi and lspi_policy as its reference."""

import collections

import numpy as np

from .dataset import check_indices
# Not called here: benchmarks/tracer.py wraps fit_least_squares by this name.
from .funcapprox import (QFunction, check_ridge,  # noqa: F401
                         fit_least_squares, greedy_policy, regression)
from .mdp import (DeterministicPolicy, StochasticPolicy, TabularMdp,
                  check_gamma, check_policy)
from .oracle import ExactSolver


class CostSelector:
    """Chooses the per-sample scalar cost: c, g_i, or c + lam.g."""

    def __init__(self, mode, index=None, lam=None):
        if mode not in ("primary", "constraint", "scalarized"):
            raise ValueError(f"unknown cost mode {mode!r}")
        self.mode = mode
        self.index = index
        self.lam = None if lam is None else np.asarray(lam, dtype=float)
        if mode == "constraint" and (index is None or index < 0):
            raise ValueError("constraint mode needs a nonnegative index")
        if mode == "scalarized":
            if self.lam is None or not np.all(
                    (self.lam >= 0) & (self.lam < np.inf)):  # NaN fails
                raise ValueError("scalarized mode needs a nonnegative, finite "
                                 "lam vector")

    @classmethod
    def primary(cls):
        return cls("primary")

    @classmethod
    def constraint(cls, i):
        return cls("constraint", index=i)

    @classmethod
    def scalarized(cls, lam):
        return cls("scalarized", lam=lam)

    def select(self, dataset):
        if self.mode == "primary":
            return dataset.c
        if self.mode == "constraint":
            if self.index >= dataset.m:
                raise ValueError("constraint index out of range")
            return dataset.g[:, self.index]
        if len(self.lam) != dataset.m:
            raise ValueError("scalarization length must equal the dataset's m")
        return dataset.c + dataset.g @ self.lam


# K is the sweep budget; sweeps is how many ran: K, or up to the first that
# returned its input values bit for bit (every later one would repeat it).
FittedRun = collections.namedtuple(
    "FittedRun", ["q_final", "per_iteration_bellman_residuals", "K", "sweeps"])

LspiResult = collections.namedtuple("LspiResult",
                                    ["weights", "converged", "iterations"])


class EmpiricalModel:
    """The distinct (x, a, x_next, done, c, g_1..g_m) rows of a dataset, each
    with the number of samples it stands for, plus the t = 0 start states.

    A tabular or linear regression weighted by these counts equals the
    regression over the original samples, so FQE, FQI and LSTDQ work on a
    table of a few hundred rows instead of every transition. Rows come out
    sorted, so the model (and every result computed on it) does not depend
    on the order of the samples.
    """

    def __init__(self, x, a, x_next, done, c, g, count, starts):
        self.x = np.asarray(x, dtype=np.int64)
        self.a = np.asarray(a, dtype=np.int64)
        self.x_next = np.asarray(x_next, dtype=np.int64)
        self.done = np.asarray(done, dtype=bool)
        self.c = np.asarray(c, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.count = np.asarray(count, dtype=float)
        self.starts = np.asarray(starts, dtype=np.int64)

    @classmethod
    def from_dataset(cls, dataset):
        """Group equal rows: rank the packed index key densely through a
        table over its span, and keep that grouping when c and g are
        constant under each key. A cost that varies under one key (a NaN
        among them) or a key span beyond the sample count falls back to one
        lexsort on (packed key, c, g) and adjacent differences. Both give
        the rows, order and counts of a lexsort over all columns."""
        return cls._grouped(dataset)[0]

    @classmethod
    def with_row_ids(cls, dataset):
        """from_dataset's model and, for every sample, the index of the
        model row it falls in."""
        return cls._grouped(dataset)

    @classmethod
    def _grouped(cls, dataset):
        key, span = _packed_key((dataset.x, dataset.a, dataset.x_next,
                                 dataset.done))
        costs = (dataset.c, *dataset.g.T)
        rows, count, row_ids = (_dense_grouping(key, span, costs)
                                or _lexsort_grouping([key, *costs]))
        model = cls(dataset.x[rows], dataset.a[rows], dataset.x_next[rows],
                    dataset.done[rows], dataset.c[rows], dataset.g[rows],
                    count, dataset.x[dataset.t == 0])
        return model, row_ids

    def restrict(self, row_ids, starts):
        """The model of the samples whose model rows are row_ids, with t = 0
        start states starts: from_dataset of those samples, without a sort."""
        count = np.bincount(row_ids, minlength=len(self))
        keep = np.flatnonzero(count)
        return EmpiricalModel(self.x[keep], self.a[keep], self.x_next[keep],
                              self.done[keep], self.c[keep], self.g[keep],
                              count[keep], starts)

    def __len__(self):
        return len(self.x)

    @property
    def m(self):
        return self.g.shape[1]

    def to_mdp(self, num_states, num_actions, gamma, initial_dist=None):
        """The certainty-equivalence MDP of the data plus one sink state.

        P(x'|x, a) comes from the counts of rows that are not done; c and g
        are count-weighted means. State num_states is a zero-cost absorbing
        sink that takes the done mass and every unvisited (x, a), so Q is 0
        where tabular FQI and ridge LSTDQ leave it 0. The initial
        distribution is initial_dist, else the data's t = 0 distribution.
        """
        if len(self) == 0:
            raise ValueError("dataset is empty")
        S, A = num_states, num_actions
        try:
            check_indices(self, S, A)
        except ValueError as exc:
            raise ValueError(f"dataset does not fit {S} states and {A} "
                             f"actions: {exc}") from None
        moves = np.zeros((S + 1, A, S + 1))
        np.add.at(moves, (self.x, self.a, np.where(self.done, S, self.x_next)),
                  self.count)
        costs = np.zeros((S + 1, A, 1 + self.m))
        np.add.at(costs, (self.x, self.a),
                  self.count[:, None] * np.column_stack([self.c, self.g]))
        visits = moves.sum(axis=2, keepdims=True)
        seen = visits[:, :, 0] > 0
        moves[seen] /= visits[seen]
        costs[seen] /= visits[seen]
        moves[~seen, S] = 1.0  # unvisited pairs, the sink's among them
        chi = (_initial_distribution(self.starts, None, S)
               if initial_dist is None else initial_dist)
        return TabularMdp(moves, costs[:, :, 0], costs[:, :, 1:], gamma,
                          np.append(chi, 0.0), terminal_states={S})

    def solver(self, num_states, num_actions, gamma, initial_dist=None):
        """An ExactSolver on to_mdp(num_states, num_actions, gamma,
        initial_dist) whose policies cover the num_states states only:
        best_response leaves out the sink's action, and policy_values
        evaluates a policy with action 0 at the sink, the action policy
        iteration picks there.

        This is tabular LSPI. With one-hot features LSTDQ is exact policy
        evaluation on this MDP and LSPI is policy iteration on it, except
        that their ridge can move an exact value tie apart: iterative lspi
        may split a tie that this solver breaks by funcapprox.greedy_actions.
        The learner's lspi flavor and `cbpl lspi` both run it."""
        return _SinkSolver(self.to_mdp(num_states, num_actions, gamma,
                                       initial_dist))


class _SinkSolver(ExactSolver):
    """ExactSolver on an empirical MDP whose last state is the sink."""

    def best_response(self, lam):
        return DeterministicPolicy(super().best_response(lam).actions[:-1])

    def policy_values(self, policy):
        return super().policy_values(
            DeterministicPolicy(np.append(policy.actions, 0)))


def _packed_key(columns):
    """One int64 per row that orders the rows as the tuple of their integer
    columns does, and the span of those keys: each column offset by its
    minimum, in mixed radix of the column spans, so every key lies in
    [0, span). Built in place in one array (int64 wraparound in the
    intermediate steps cancels out, since every final key fits). Raises
    ValueError if the product of the spans does not fit int64."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    size = 1
    if len(key) == 0:
        return key, size
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        size *= span
        if size > np.iinfo(np.int64).max:
            raise ValueError("the state and action indices span too many "
                             "values to group the dataset's rows")
        key *= span
        key += col
        key -= lo
    return key, size


def _dense_grouping(key, span, costs):
    """(rows, counts, row ids) of the samples grouped by key alone, or None
    where that is not the grouping of a lexsort on (key, costs): some cost
    column differs from its group's first sample (a NaN never equals), or
    the span of the keys exceeds the sample count. The rank table has span
    entries, so it is never larger than one sample column. Rows are each
    group's first sample, in key order, as the stable lexsort picks them."""
    n = len(key)
    if span > n:
        return None
    table = np.zeros(span, dtype=np.int64)
    table[key] = 1
    np.cumsum(table, out=table)
    row_ids = table[key]
    row_ids -= 1
    groups = int(table[-1])
    rows = np.full(groups, n)
    np.minimum.at(rows, row_ids, np.arange(n))
    for col in costs:
        if not np.array_equal(col, col[rows][row_ids]):
            return None
    return rows, np.bincount(row_ids, minlength=groups), row_ids


def _lexsort_grouping(keys):
    """(rows, counts, row ids) of one lexsort on keys, the first primary,
    and adjacent differences: rows are each group's first sample in sorted
    order."""
    order = np.lexsort(keys[::-1])
    new_row = np.zeros(len(order), dtype=bool)
    new_row[:1] = True
    for key in keys:
        key = key[order]
        new_row[1:] |= key[1:] != key[:-1]
    first = np.flatnonzero(new_row)
    row_ids = np.empty(len(order), dtype=np.int64)
    row_ids[order] = np.cumsum(new_row) - 1
    return order[first], np.diff(np.append(first, len(order))), row_ids


def _as_model(data):
    if isinstance(data, EmpiricalModel):
        return data
    return EmpiricalModel.from_dataset(data)


def _resolve_gamma(gamma, mdp):
    """The discount: the map's, which a given gamma must equal, else the
    given one, which must lie in (0, 1)."""
    if mdp is None:
        if gamma is None:
            raise ValueError("provide gamma or an mdp handle")
        return check_gamma(gamma)
    if gamma is not None and float(gamma) != mdp.gamma:
        raise ValueError(f"gamma {gamma} differs from the map's {mdp.gamma}")
    return mdp.gamma


def _initial_distribution(starts, mdp, num_states):
    """mdp's initial distribution, else the empirical one of the t = 0
    states in starts."""
    if mdp is not None:
        return mdp.initial_dist
    if len(starts) == 0:
        raise ValueError("dataset has no t=0 samples to infer the initial "
                         "distribution from")
    chi = np.bincount(starts, minlength=num_states).astype(float)
    return chi / chi.sum()


def _state_values(vals, policy):
    """V(x) = sum_a pi(a|x) Q(x, a) for every state, from the (S, A) values."""
    if isinstance(policy, StochasticPolicy):
        return np.einsum("xa,xa->x", policy.probs, vals)
    return vals[np.arange(vals.shape[0]), policy.actions]


def _fitted_sweeps(model, cost, K, template, gamma, bootstrap_of):
    """K regressions of y = c + gamma * bootstrap_of(Q values)[x'] (y = c on
    done rows), each weighted by the row counts. Returns (Q_K, residuals,
    sweeps run), the residual being the RMS Bellman error over the original
    samples. The regression is set up once, so a sweep is the targets, one
    fit and the residual through the rows' flat cells.

    A sweep is a pure function of the values it starts from, so once one
    returns them bit for bit (compared as int64, so -0.0 and 0.0 differ and
    NaN is not a match) every later sweep returns the same values and
    residual: the loop stops there and repeats the last residual."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if len(model) == 0:
        raise ValueError("dataset is empty")
    vals = template.values()
    check_indices(model, *vals.shape)
    nx, done, w = model.x_next, model.done, model.count
    reg = regression(template, model.x, model.a, w)
    costs = cost.select(model)
    total = w.sum()
    residuals = []
    for _ in range(K):
        y = costs + gamma * np.where(done, 0.0, bootstrap_of(vals)[nx])
        fitted = reg.fit(y)
        err = fitted[reg.flat] - y
        residuals.append(float(np.sqrt(np.dot(w, err * err) / total)))
        fitted = fitted.reshape(reg.shape)
        settled = np.array_equal(fitted.view(np.int64), vals.view(np.int64))
        vals = fitted
        if settled:
            break
    sweeps = len(residuals)
    residuals += residuals[-1:] * (K - sweeps)
    return reg.q_function(vals), residuals, sweeps


def fqe(dataset, policy, cost, K, template, gamma=None, mdp=None):
    """Fitted Q evaluation of a fixed policy.

    dataset: a Dataset or its EmpiricalModel. At most K rounds of
    regression on targets y = c + gamma * V(x') with V(x) = sum_a pi(a|x)
    Q(x, a) (y = c on done samples), stopping early at a round that returns
    its input values bit for bit, so the result is that of all K rounds;
    returns (estimate, FittedRun) where the estimate averages V_K over the
    initial distribution.
    """
    model = _as_model(dataset)
    gamma = _resolve_gamma(gamma, mdp)
    check_policy(policy, *template.values().shape)
    q, residuals, sweeps = _fitted_sweeps(
        model, cost, K, template, gamma,
        lambda vals: _state_values(vals, policy))
    v_pi = _state_values(q.values(), policy)
    chi = _initial_distribution(model.starts, mdp, len(v_pi))
    return float(chi @ v_pi), FittedRun(q, residuals, K, sweeps)


def fqi(dataset, cost, K, template, gamma=None, mdp=None):
    """Fitted Q iteration toward the optimal scalarized cost-to-go.

    dataset: a Dataset or its EmpiricalModel. At most K rounds of
    regression on targets y = c + gamma * min_a Q(x', a) (y = c on done
    samples), stopping early as fqe does; returns (greedy policy of Q_K,
    FittedRun).
    """
    model = _as_model(dataset)
    gamma = _resolve_gamma(gamma, mdp)
    q, residuals, sweeps = _fitted_sweeps(model, cost, K, template, gamma,
                                          lambda vals: vals.min(axis=1))
    return greedy_policy(q), FittedRun(q, residuals, K, sweeps)


def lspi_policy(weights, features):
    """Greedy policy of a linear Q given by LSTDQ/LSPI weights (general
    linear features; see the module docstring)."""
    return greedy_policy(QFunction(weights=weights, features=features))


def lstdq(dataset, w, cost, features, gamma, ridge=1e-8):
    """One LSTDQ solve with successor actions greedy under the given w:
    a' = argmin_a w.phi(x', a), tied as in lspi_policy. For general linear
    features; see the module docstring."""
    return lstdq_policy(dataset, lspi_policy(w, features), cost, features,
                        gamma, ridge)


def lstdq_policy(dataset, policy, cost, features, gamma, ridge=1e-8):
    """LSTDQ in policy-evaluation form, successor actions a' = pi(x'), on
    the distinct rows of the data weighted by their counts. dataset: a
    nonempty Dataset or its EmpiricalModel. Done samples contribute no
    successor feature. The policy must be deterministic. For general
    linear features; see the module docstring."""
    if isinstance(policy, StochasticPolicy):
        raise ValueError("lstdq_policy needs a deterministic policy")
    check_policy(policy, *features.phi.shape[:2])
    check_ridge(ridge)
    model = _as_model(dataset)
    if len(model) == 0:
        raise ValueError("dataset is empty")
    check_indices(model, *features.phi.shape[:2])
    phi_all = features.phi
    phi = phi_all[model.x, model.a]
    phi_next = np.where(model.done[:, None], 0.0,
                        phi_all[model.x_next, policy.actions[model.x_next]])
    weighted = phi.T * model.count
    a_tilde = weighted @ (phi - gamma * phi_next) + ridge * np.eye(features.k)
    b_tilde = weighted @ cost.select(model)
    try:
        return np.linalg.solve(a_tilde, b_tilde)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "singular LSTDQ system; use a positive ridge") from exc


def lspi(dataset, cost, features, gamma, eps_stop=1e-6, max_iters=50, ridge=1e-8):
    """Least-squares policy iteration: iterate w <- lstdq(w) from w = 0
    until the l2 change drops to eps_stop; returns an LspiResult.

    For general linear features; the tabular case is EmpiricalModel.solver,
    which keeps this as its reference."""
    if not 0 < eps_stop < np.inf:  # NaN fails too
        raise ValueError("eps_stop must be a finite number > 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    model = _as_model(dataset)
    w = np.zeros(features.k)
    for it in range(1, max_iters + 1):
        w_new = lstdq(model, w, cost, features, gamma, ridge=ridge)
        change = float(np.linalg.norm(w_new - w))
        w = w_new
        if change <= eps_stop:
            return LspiResult(w, True, it)
    return LspiResult(w, False, max_iters)
