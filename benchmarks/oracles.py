"""Reference computations made apart from cbpl, and the checks that compare
the program's outputs with them.

Nothing here calls into cbpl: the grid model is rebuilt from the layout
text, policy values come from a linear solve, the constrained optimum from a
linear program over discounted occupancy measures, and FQE, PDIS, DR and WDR
from numpy formulations of their definitions. The only conventions shared
with the program are its interface: the action order (north, south, east,
west), the column names of a dataset, and the row layout of
``ope_comparison``.

Every ``check_*`` function returns a list of failure messages; an empty list
means the output passed.
"""

import math

import numpy as np

# Row and column offsets of the four moves, in the program's action order.
MOVES = ((-1, 0), (1, 0), (0, 1), (0, -1))

# Reals are compared to the program's within this absolute tolerance where
# the two sides sum the same terms in another order.
ROUNDOFF_TOL = 1e-9


class GridModel:
    """The FrozenLake MDP of a layout: deterministic moves that stay in place
    at the border, cost c = -1 for entering a goal, constraint cost g = 1 for
    entering a hole, and goals and holes absorbing with zero cost."""

    def __init__(self, layout, gamma):
        rows = [str(r).strip() for r in layout]
        self.gamma = float(gamma)
        n_rows, n_cols = len(rows), len(rows[0])
        cells = "".join(rows)
        self.num_states, self.num_actions = len(cells), len(MOVES)
        self.start = cells.index("S")
        self.goal = np.array([ch == "G" for ch in cells])
        self.hole = np.array([ch == "H" for ch in cells])
        self.terminal = self.goal | self.hole
        self.next_state = np.zeros((self.num_states, self.num_actions), dtype=np.int64)
        for x in range(self.num_states):
            r, col = divmod(x, n_cols)
            for a, (dr, dc) in enumerate(MOVES):
                nr, nc = r + dr, col + dc
                inside = 0 <= nr < n_rows and 0 <= nc < n_cols
                self.next_state[x, a] = x if self.terminal[x] else (
                    nr * n_cols + nc if inside else x)
        live = ~self.terminal[:, None]
        self.cost_c = np.where(live & self.goal[self.next_state], -1.0, 0.0)
        self.cost_g = np.where(live & self.hole[self.next_state], 1.0, 0.0)

    def transition(self):
        """Dense (S, A, S) transition table."""
        p = np.zeros((self.num_states, self.num_actions, self.num_states))
        x, a = np.indices(self.next_state.shape)
        p[x, a, self.next_state] = 1.0
        return p


def policy_values(model, actions):
    """Exact (C, G) of a deterministic policy from the start state, by
    solving (I - gamma P_pi) v = cost_pi."""
    x = np.arange(model.num_states)
    p_pi = np.zeros((model.num_states, model.num_states))
    p_pi[x, model.next_state[x, actions]] = 1.0
    costs = np.column_stack([model.cost_c[x, actions], model.cost_g[x, actions]])
    v = np.linalg.solve(np.eye(model.num_states) - model.gamma * p_pi, costs)
    return float(v[model.start, 0]), float(v[model.start, 1])


def mixture_values(model, member_actions, weights):
    """Exact (C, G) of a mixture that draws one member per episode."""
    vals = np.array([policy_values(model, a) for a in member_actions])
    w = np.asarray(weights, dtype=float)
    c, g = w @ vals
    return float(c), float(g)


def constrained_optimum(model, tau):
    """C* = min C(pi) subject to G(pi) <= tau, as a linear program over
    discounted occupancy measures mu(x, a) >= 0 with
    sum_a mu(y, a) - gamma sum_{x,a} P(y|x, a) mu(x, a) = 1[y = start]."""
    from scipy.optimize import linprog

    S, A = model.num_states, model.num_actions
    flow = np.kron(np.eye(S), np.ones((1, A)))
    flow -= model.gamma * model.transition().reshape(S * A, S).T
    start = np.zeros(S)
    start[model.start] = 1.0
    res = linprog(model.cost_c.ravel(), A_ub=model.cost_g.ravel()[None, :],
                  b_ub=[tau], A_eq=flow, b_eq=start, bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"occupancy LP failed: {res.message}")
    return float(res.fun)


def regret_gap_bound(B, eta, g_bar, rounds):
    """Twice the EG average-regret bound with m = 1: the largest duality gap
    the tuned step size allows at round t."""
    t = np.asarray(rounds, dtype=float)
    return 2.0 * (B * math.log(2.0) / (eta * t) + eta * B * g_bar ** 2)


def fqe_reference(data, eval_actions, gamma, K, num_states, num_actions, start):
    """Tabular FQE through the empirical model of the data.

    Each sweep sets every seen cell to its mean target
    c + gamma (1 - done) Q(x', pi(x')); unseen cells stay 0. Summing costs
    and successor counts per cell first gives the same values as the
    per-sample regression up to roundoff. Returns (estimate, Q)."""
    S, A = num_states, num_actions
    cell = data["x"] * A + data["a"]
    counts = np.bincount(cell, minlength=S * A).astype(float)
    seen = counts > 0
    mean_c = np.bincount(cell, weights=data["c"], minlength=S * A)
    mean_c[seen] /= counts[seen]
    live = ~data["done"]
    succ = np.zeros((S * A, S))
    np.add.at(succ, (cell[live], data["x_next"][live]), 1.0)
    succ[seen] /= counts[seen, None]
    q = np.zeros(S * A)
    idx = np.arange(S)
    for _ in range(K):
        v = q.reshape(S, A)[idx, eval_actions]
        q = np.where(seen, mean_c + gamma * (succ @ v), 0.0)
    q = q.reshape(S, A)
    return float(q[start, eval_actions[start]]), q


def importance_estimates(data, eval_actions, q, gamma):
    """PDIS, DR and WDR of a deterministic evaluation policy, written as sums
    over a (trajectories, horizon) matrix.

    With cumulative weights w_t = prod_{s<=t} rho_s (padded past each
    trajectory's end with rho = 1) and w_{-1} = 1:
    PDIS = mean_i sum_t gamma^t w_t c_t,
    DR = mean_i sum_t gamma^t [w_t (c_t - Q_t) + w_{t-1} V_t], which unrolls
    the recursion DR_t = V_t + rho_t (c_t + gamma DR_{t+1} - Q_t),
    WDR = the same sum with weights normalised over trajectories per t."""
    x, a, t = data["x"], data["a"], data["t"]
    traj = np.cumsum(np.r_[False, np.diff(data["traj_id"]) != 0])
    shape = (int(traj[-1]) + 1, int(t.max()) + 1)

    def padded(values, fill=0.0):
        out = np.full(shape, fill)
        out[traj, t] = values
        return out

    rho = padded((eval_actions[x] == a) / data["behavior_prob"], fill=1.0)
    c = padded(data["c"])
    q_mat = padded(q[x, a])
    v_mat = padded(q[x, eval_actions[x]])
    w = np.cumprod(rho, axis=1)
    w_prev = np.hstack([np.ones((shape[0], 1)), w[:, :-1]])
    disc = gamma ** np.arange(shape[1])
    pdis = float(np.mean((disc * w * c).sum(axis=1)))
    dr = float(np.mean((disc * (w * (c - q_mat) + w_prev * v_mat)).sum(axis=1)))
    sums = w.sum(axis=0)
    wn = np.divide(w, sums, out=np.zeros_like(w), where=sums > 0)
    wn_prev = np.hstack([np.full((shape[0], 1), 1.0 / shape[0]), wn[:, :-1]])
    wdr = float(np.sum(disc * (wn * (c - q_mat) + wn_prev * v_mat)))
    return pdis, dr, wdr


def dataset_columns(dataset):
    """The columns of a cbpl Dataset as a plain dict of arrays."""
    return {name: np.asarray(getattr(dataset, name)) for name in
            ("traj_id", "t", "x", "a", "x_next", "c", "g", "done", "behavior_prob")}


def differing_columns(left, right):
    """Names of the columns that differ in shape, dtype kind or any value."""
    return [name for name in left
            if left[name].shape != right[name].shape
            or left[name].dtype.kind != right[name].dtype.kind
            or not np.array_equal(left[name], right[name])]


def check_fitted(model, c_star, mixture, trace, omega, tau):
    """The fitted run converged and its mixture is safe and near-optimal
    under exact evaluation: G <= tau + 0.01, C <= C* + omega + 0.05."""
    fails = []
    if not trace.converged or not trace.gap[-1] <= omega:
        fails.append(f"fitted run did not converge: final gap {trace.gap[-1]!r}, "
                     f"reason {trace.termination_reason!r}")
    c, g = mixture_values(model, [m.actions for m in mixture.members],
                          mixture.weights)
    if not g <= tau + 0.01:
        fails.append(f"fitted mixture exact G {g!r} exceeds tau + 0.01")
    if not c <= c_star + omega + 0.05:
        fails.append(f"fitted mixture exact C {c!r} exceeds C* {c_star!r} + omega + 0.05")
    return fails


def check_exact(model, c_star, mixture, trace, B, eta, omega, tau, g_bar, cap):
    """The exact run converged within its cap, every trace row obeys the
    regret bound and the sandwich l_max >= l_mid >= l_min, and the mixture
    meets the paper's guarantees C <= C* + omega, G <= tau + 2(Gbar+omega)/B."""
    fails = []
    if not trace.converged or trace.total_rounds > cap or not trace.gap[-1] <= omega:
        fails.append(f"exact run did not converge within {cap} rounds: "
                     f"{trace.total_rounds} rounds, final gap {trace.gap[-1]!r}")
    over = np.flatnonzero(trace.gap > regret_gap_bound(B, eta, g_bar, trace.rounds)
                          + ROUNDOFF_TOL)
    if len(over):
        fails.append(f"{len(over)} trace rows exceed the regret bound, first at "
                     f"round {int(trace.rounds[over[0]])}")
    if np.any(np.abs(trace.gap - (trace.l_max - trace.l_min)) > ROUNDOFF_TOL):
        fails.append("trace gap differs from l_max - l_min")
    if not (np.all(trace.l_max >= trace.l_mid - ROUNDOFF_TOL)
            and np.all(trace.l_mid >= trace.l_min - ROUNDOFF_TOL)):
        fails.append("trace rows break l_max >= l_mid >= l_min")
    c, g = mixture_values(model, [m.actions for m in mixture.members],
                          mixture.weights)
    if not c <= c_star + omega:
        fails.append(f"exact mixture C {c!r} exceeds C* {c_star!r} + omega")
    if not g <= tau + 2.0 * (g_bar + omega) / B:
        fails.append(f"exact mixture G {g!r} exceeds tau + 2(Gbar + omega)/B")
    return fails


def check_ope(rows, fractions, trials, reference, exact_value):
    """ope_comparison rows: the full count, all finite, abs_error consistent
    with the exact value, and at fraction 1.0 (every trial sees the whole
    dataset) each estimate equal to the reference within roundoff and FQE
    within 0.02 of the exact value. reference maps method -> estimate."""
    fails = []
    expected = 4 * len(fractions) * trials
    if len(rows) != expected:
        fails.append(f"expected {expected} OPE rows, got {len(rows)}")
    if not all(math.isfinite(r[3]) and math.isfinite(r[4]) for r in rows):
        fails.append("OPE rows contain non-finite values")
    bad_err = [r for r in rows if abs(r[4] - abs(r[3] - exact_value)) > ROUNDOFF_TOL]
    if bad_err:
        fails.append(f"{len(bad_err)} OPE rows have abs_error != |estimate - exact|")
    full = [r for r in rows if r[1] == 1.0]
    if len(full) != 4 * trials:
        fails.append(f"expected {4 * trials} rows at fraction 1.0, got {len(full)}")
    for method, _, trial, est, _ in full:
        ref = reference.get(method)
        if ref is None or not abs(est - ref) <= ROUNDOFF_TOL:
            fails.append(f"{method} trial {trial} at fraction 1.0: {est!r} "
                         f"!= reference {ref!r}")
        if method == "fqe" and not abs(est - exact_value) <= 0.02:
            fails.append(f"fqe trial {trial} at fraction 1.0 is {est!r}, "
                         f"more than 0.02 from exact {exact_value!r}")
    return fails


def check_dataset_rows(model, cols, num_trajectories, horizon):
    """Every row agrees with the grid model and trajectories chain from the
    start state: x_next is the move of (x, a), c and g are the costs of
    entering a goal or hole, done holds exactly when x_next is terminal,
    each trajectory runs t = 0, 1, ... from the start until done or the
    horizon, and equal (x, a) rows carry equal behavior_prob."""
    fails = []
    x, a, nx, tid, t = cols["x"], cols["a"], cols["x_next"], cols["traj_id"], cols["t"]
    if len(x) == 0:
        return ["dataset is empty"]
    if np.any((x < 0) | (x >= model.num_states) | (a < 0) | (a >= model.num_actions)):
        return ["state or action index out of range"]
    if np.any(model.terminal[x]):
        fails.append("rows start from a terminal state")
    if not np.array_equal(nx, model.next_state[x, a]):
        fails.append("x_next is not the move of (x, a)")
    if not np.array_equal(cols["c"], model.cost_c[x, a]):
        fails.append("c is not the cost of entering a goal")
    if cols["g"].shape != (len(x), 1) or not np.array_equal(cols["g"][:, 0],
                                                           model.cost_g[x, a]):
        fails.append("g is not the cost of entering a hole")
    if not np.array_equal(cols["done"], model.terminal[nx]):
        fails.append("done does not mark terminal successors")
    first = np.r_[True, tid[1:] != tid[:-1]]
    last = np.r_[first[1:], True]
    if not (tid[0] == 0 and np.all(np.diff(tid) >= 0)
            and np.all(np.diff(tid) <= 1) and tid[-1] == num_trajectories - 1):
        fails.append(f"trajectory ids are not 0..{num_trajectories - 1} in order")
    if not (np.all(t[first] == 0) and np.all(x[first] == model.start)):
        fails.append("a trajectory does not start at t = 0 from the start state")
    if not (np.all(t[1:][~first[1:]] == t[:-1][~first[1:]] + 1)
            and np.array_equal(x[1:][~first[1:]], nx[:-1][~first[1:]])):
        fails.append("a trajectory does not chain x_next into the next x")
    if np.any(cols["done"][~last]) or not np.all(cols["done"][last] | (t[last] == horizon - 1)):
        fails.append("a trajectory does not end exactly at done or the horizon")
    cell = x * model.num_actions + a
    bp = cols["behavior_prob"]
    lo = np.full(model.num_states * model.num_actions, np.inf)
    hi = np.full(model.num_states * model.num_actions, -np.inf)
    np.minimum.at(lo, cell, bp)
    np.maximum.at(hi, cell, bp)
    seen = np.isfinite(lo)
    if np.any(bp <= 0) or np.any(lo[seen] != hi[seen]):
        fails.append("equal (x, a) rows carry different behavior_prob")
    return fails


def check_roundtrip(model, collected, loaded, digests, num_trajectories, horizon):
    """The loaded dataset equals the collected one field for field, the
    collected rows agree with the grid model, and every save wrote the same
    bytes."""
    fails = check_dataset_rows(model, collected, num_trajectories, horizon)
    changed = differing_columns(collected, loaded)
    if changed:
        fails.append(f"loaded dataset differs from the collected one in {changed}")
    if len(set(digests)) != 1:
        fails.append(f"saved CSV bytes differ between repetitions: {sorted(set(digests))}")
    return fails
