"""Q-function classes: tabular and linear-in-features, plus the shared
least-squares regression step used by the fitted solvers."""

import numpy as np

from .mdp import DeterministicPolicy


class FeatureMap:
    """Fixed-dimension feature vectors for every (state, action) pair.

    phi is stored densely with shape (S, A, k).
    """

    def __init__(self, phi):
        self.phi = np.asarray(phi, dtype=float)
        if self.phi.ndim != 3:
            raise ValueError("phi must have shape (S, A, k)")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("features must be finite")

    @property
    def k(self):
        return self.phi.shape[2]


def one_hot_features(mdp):
    """Indicator features: k = S*A, one coordinate per (x, a) cell."""
    S, A = mdp.num_states, mdp.num_actions
    phi = np.eye(S * A).reshape(S, A, S * A)
    return FeatureMap(phi)


class QFunction:
    """Tabular table over (x, a) or linear weights on a FeatureMap."""

    def __init__(self, table=None, weights=None, features=None):
        if (table is None) == (weights is None):
            raise ValueError("provide exactly one of table or weights")
        if weights is not None and features is None:
            raise ValueError("linear QFunction needs a FeatureMap")
        self.table = None if table is None else np.asarray(table, dtype=float)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        self.features = features
        if self.weights is not None and self.weights.shape != (features.k,):
            raise ValueError("weight length must equal the feature dimension")

    @classmethod
    def tabular_zeros(cls, num_states, num_actions):
        return cls(table=np.zeros((num_states, num_actions)))

    @property
    def is_tabular(self):
        return self.table is not None

    def values(self):
        """Dense (S, A) matrix of Q values."""
        if self.is_tabular:
            return self.table
        return self.features.phi @ self.weights


def check_ridge(ridge):
    """Raise ValueError unless ridge is a finite number >= 0."""
    if not 0 <= ridge < np.inf:  # NaN fails too
        raise ValueError("ridge must be a finite number >= 0")


class CellMeans:
    """The tabular fit on fixed rows (xs, aa) with fixed weights: each seen
    (x, a) cell becomes the weighted mean of its rows' targets, and unseen
    cells keep the given table's values. The rows' flat cells, the seen
    cells and their weighted counts are set up once: a fit is one bincount."""

    def __init__(self, xs, aa, weights, table):
        self.shape = table.shape
        self.flat = xs * self.shape[1] + aa
        self.weights = weights
        counts = np.bincount(self.flat, weights=weights, minlength=table.size)
        self.seen = np.flatnonzero(counts > 0)
        self.counts = counts[self.seen]
        self.base = table.ravel()

    def fit(self, y):
        sums = np.bincount(self.flat, weights=self.weights * y,
                           minlength=len(self.base))
        table = self.base.copy()
        table[self.seen] = sums[self.seen] / self.counts
        return table

    def q_function(self, values):
        return QFunction(table=values.reshape(self.shape))


class LinearFit:
    """The linear fit on fixed rows (xs, aa) with fixed weights W: the w of
    the weighted ridge normal equations (Phi^T W Phi + ridge I) w = Phi^T W y.
    The SVD of sqrt(W) Phi is taken once, cut at its numerical rank (the
    directions below it add nothing in exact arithmetic; solving for them
    would amplify roundoff by 1/ridge), so a fit is two matrix products."""

    def __init__(self, xs, aa, weights, features, ridge):
        self.shape = features.phi.shape[:2]
        self.flat = xs * self.shape[1] + aa
        self.features = features
        self.root_w = np.sqrt(weights)
        design = features.phi[xs, aa] * self.root_w[:, None]
        u, sv, vt = np.linalg.svd(design, full_matrices=False)
        keep = sv > sv.max() * max(design.shape) * np.finfo(float).eps
        if ridge == 0 and np.count_nonzero(keep) < features.k:
            raise np.linalg.LinAlgError(
                "singular least-squares problem; use a positive ridge")
        self.gain = sv[keep] / (sv[keep] ** 2 + ridge)
        self.u_t, self.v = u[:, keep].T, vt[keep].T

    def fit(self, y):
        self.w = self.v @ (self.gain * (self.u_t @ (self.root_w * y)))
        return (self.features.phi @ self.w).ravel()

    def q_function(self, values):
        return QFunction(weights=self.w, features=self.features)


def regression(template, xs, aa, weights=None, ridge=1e-8):
    """The least-squares fit onto the template's function class on fixed
    rows (xs, aa) with fixed nonnegative weights (None weighs every row 1):
    CellMeans if the template is tabular, else LinearFit. fit(y) returns the
    fitted Q of all S*A cells, flat, with the rows' cells at flat, and
    q_function(values) the QFunction of the last fit."""
    weights = (np.ones(len(xs)) if weights is None
               else np.asarray(weights, dtype=float))
    if weights.shape != xs.shape or not np.all(weights >= 0):
        raise ValueError("weights must be nonnegative and aligned with targets")
    check_ridge(ridge)
    if template.is_tabular:
        return CellMeans(xs, aa, weights, template.table)
    return LinearFit(xs, aa, weights, template.features, ridge)


def fit_least_squares(inputs, targets, template, ridge=1e-8, weights=None):
    """Least-squares regression of targets onto the template's function
    class: regression set up on inputs, the pair (x_array, a_array), and
    fitted once. weights: optional nonnegative per-row weights W (for
    example the sample count of each distinct row); None weighs rows 1."""
    xs, aa = (np.asarray(v, dtype=np.int64) for v in inputs)
    y = np.asarray(targets, dtype=float)
    if len(xs) != len(y) or len(y) == 0:
        raise ValueError("inputs and targets must be nonempty and aligned")
    reg = regression(template, xs, aa, weights, ridge)
    return reg.q_function(reg.fit(y))


# Two Q values of a state tie when they differ by at most TIE_TOL times the
# largest |Q(x, .)| of that state. Every tabular solver (FQI, LSPI, exact
# policy iteration) picks its greedy action by this one rule, so an exact tie
# goes to the lowest action whatever roundoff the solver added, while a small
# cost such as lam * g under a decayed multiplier still separates actions.
TIE_TOL = 1e-9


def greedy_actions(vals):
    """The lowest action of each row of vals (S, A) within its tie
    tolerance of the row minimum, and that (S, 1) tolerance."""
    tol = TIE_TOL * np.abs(vals).max(axis=1, keepdims=True)
    near = vals <= vals.min(axis=1, keepdims=True) + tol
    return np.argmax(near, axis=1), tol


def greedy_policy(q):
    """argmin_a Q(x, a) per state under the tie rule of greedy_actions."""
    return DeterministicPolicy(greedy_actions(q.values())[0])

