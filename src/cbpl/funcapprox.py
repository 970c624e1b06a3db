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


def fit_least_squares(inputs, targets, template, ridge=1e-8, weights=None):
    """Least-squares regression of targets onto the template's function class.

    inputs: the pair (x_array, a_array).
    weights: optional nonnegative per-row weights W (for example the sample
    count of each distinct row); None weighs every row 1.
    Tabular: each seen (x, a) cell becomes the weighted mean of its targets;
    unseen cells keep the template's value. Linear: the w of the weighted
    ridge normal equations (Phi^T W Phi + ridge I) w = Phi^T W y, computed
    from the SVD of sqrt(W) Phi.
    """
    xs, aa = (np.asarray(v, dtype=np.int64) for v in inputs)
    y = np.asarray(targets, dtype=float)
    if len(xs) != len(y) or len(y) == 0:
        raise ValueError("inputs and targets must be nonempty and aligned")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != y.shape or np.any(weights < 0):
            raise ValueError("weights must be nonnegative and aligned with targets")

    if template.is_tabular:
        S, A = template.table.shape
        flat = xs * A + aa
        counts = np.bincount(flat, weights=weights, minlength=S * A)
        wy = y if weights is None else weights * y
        sums = np.bincount(flat, weights=wy, minlength=S * A)
        table = template.table.copy().ravel()
        seen = counts > 0
        table[seen] = sums[seen] / counts[seen]
        return QFunction(table=table.reshape(S, A))

    # Directions of sqrt(W) Phi below its numerical rank add nothing in
    # exact arithmetic; solving for them would amplify roundoff by 1/ridge.
    feats = template.features
    root_w = np.ones(len(y)) if weights is None else np.sqrt(weights)
    design = feats.phi[xs, aa] * root_w[:, None]
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    keep = sv > sv.max() * max(design.shape) * np.finfo(float).eps
    if ridge == 0 and np.count_nonzero(keep) < feats.k:
        raise np.linalg.LinAlgError(
            "singular least-squares problem; use a positive ridge")
    gain = sv[keep] / (sv[keep] ** 2 + ridge)
    w = vt[keep].T @ (gain * (u[:, keep].T @ (root_w * y)))
    return QFunction(weights=w, features=feats)


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

