"""Finite MDPs, policies, and reference environments.

States and actions are integer indices. An MDP carries one primary cost
channel c(x, a) and m nonnegative constraint cost channels g(x, a).
Terminal states are encoded as absorbing self-loops with zero cost in every
channel, so infinite-horizon discounted values equal episodic returns.
"""

import numpy as np

# FrozenLake action order.
ACTION_NORTH, ACTION_SOUTH, ACTION_EAST, ACTION_WEST = 0, 1, 2, 3


class TabularMdp:
    """Finite MDP (X, A, c, g, P, gamma, chi) with terminal-state bookkeeping.

    transition: (S, A, S) row-stochastic table P(x'|x, a).
    cost_c: (S, A) primary cost, cost_g: (S, A, m) constraint costs.
    initial_dist: (S,) distribution over start states.
    terminal_states: iterable of absorbing zero-cost states.
    metadata: optional dict for environment extras (e.g. grid layout).
    """

    def __init__(self, transition, cost_c, cost_g, gamma, initial_dist,
                 terminal_states=(), metadata=None):
        self.transition = np.asarray(transition, dtype=float)
        self.cost_c = np.asarray(cost_c, dtype=float)
        self.cost_g = np.asarray(cost_g, dtype=float)
        self.gamma = check_gamma(gamma)
        self.initial_dist = np.asarray(initial_dist, dtype=float)
        self.terminal_states = frozenset(int(s) for s in terminal_states)
        self.metadata = dict(metadata or {})

        if self.transition.ndim != 3 or self.transition.shape[0] != self.transition.shape[2]:
            raise ValueError("transition must have shape (S, A, S)")
        S, A, _ = self.transition.shape
        if self.cost_c.shape != (S, A):
            raise ValueError("cost_c must have shape (S, A)")
        if self.cost_g.ndim != 3 or self.cost_g.shape[:2] != (S, A):
            raise ValueError("cost_g must have shape (S, A, m)")
        if self.initial_dist.shape != (S,):
            raise ValueError("initial_dist must have shape (S,)")
        if np.any(self.cost_g < 0):
            raise ValueError("constraint costs must be nonnegative")
        if not np.all(self.transition >= 0):  # NaN fails too
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = self.transition.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1")
        if (abs(self.initial_dist.sum() - 1.0) > 1e-12
                or not np.all(self.initial_dist >= 0)):  # NaN fails too
            raise ValueError("initial_dist must be a probability vector")
        for s in self.terminal_states:
            if not (0 <= s < S):
                raise ValueError("terminal state index out of range")
            if self.transition[s, :, s].min() < 1.0 - 1e-12:
                raise ValueError("terminal states must be absorbing self-loops")
            if np.any(self.cost_c[s] != 0) or np.any(self.cost_g[s] != 0):
                raise ValueError("terminal states must have zero costs")

        self.terminal_mask = np.zeros(S, dtype=bool)
        if self.terminal_states:
            self.terminal_mask[sorted(self.terminal_states)] = True

    @property
    def num_states(self):
        return self.transition.shape[0]

    @property
    def num_actions(self):
        return self.transition.shape[1]

    @property
    def m(self):
        return self.cost_g.shape[2]


class DeterministicPolicy:
    """Maps every state to a single action."""

    def __init__(self, actions):
        self.actions = np.asarray(actions, dtype=np.int64)
        if self.actions.ndim != 1:
            raise ValueError("actions must be a 1-d array over states")


class StochasticPolicy:
    """Row-stochastic action distribution per state."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)
        if self.probs.ndim != 2:
            raise ValueError("probs must have shape (S, A)")
        if (not np.all(self.probs >= 0)  # NaN fails too
                or np.max(np.abs(self.probs.sum(axis=1) - 1.0)) > 1e-12):
            raise ValueError("policy rows must be probability vectors")


def check_gamma(gamma):
    """gamma as a float; ValueError unless it lies in (0, 1), which NaN
    does not."""
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return gamma


def check_policy(policy, num_states, num_actions):
    """Raise ValueError unless policy acts on num_states states and
    num_actions actions: a table of that shape, or one action in
    [0, num_actions) for each state."""
    if isinstance(policy, StochasticPolicy):
        shape, bad = policy.probs.shape, ()
    else:
        actions = policy.actions
        shape = (len(actions), num_actions)
        bad = np.flatnonzero((actions < 0) | (actions >= num_actions))
    if shape != (num_states, num_actions):
        raise ValueError(f"policy table has shape {shape}, "
                         f"expected ({num_states}, {num_actions})")
    if len(bad):
        raise ValueError(f"action {actions[bad[0]]} at state {bad[0]} is "
                         f"outside [0, {num_actions})")


def as_stochastic(policy, num_states, num_actions):
    """View a policy on num_states states and num_actions actions (as
    check_policy checks) as a row-stochastic table."""
    check_policy(policy, num_states, num_actions)
    if isinstance(policy, StochasticPolicy):
        return policy.probs
    probs = np.zeros((num_states, num_actions))
    probs[np.arange(num_states), policy.actions] = 1.0
    return probs


def _parse_layout(layout):
    if isinstance(layout, str):
        rows = [line.strip() for line in layout.strip().splitlines()]
    else:
        rows = [str(line).strip() for line in layout]
    if not rows:
        raise ValueError("empty layout")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ValueError("layout must be rectangular")
    for r in rows:
        for ch in r:
            if ch not in "SFHG":
                raise ValueError(f"invalid layout character {ch!r}")
    joined = "".join(rows)
    if joined.count("S") != 1:
        raise ValueError("layout must contain exactly one start cell")
    if joined.count("G") < 1:
        raise ValueError("layout must contain at least one goal cell")
    return rows


def build_frozenlake(layout, gamma=0.95):
    """Gridworld with one start, free/hole/goal cells, 4 deterministic moves.

    One state per cell. Moving off the grid returns to the same cell.
    Entering a goal costs -1 on the primary channel; entering a hole costs 1
    on the single constraint channel; goal and hole cells are terminal.
    """
    rows = _parse_layout(layout)
    R, C = len(rows), len(rows[0])
    S = R * C
    A = 4
    holes = frozenset(r * C + c for r in range(R) for c in range(C) if rows[r][c] == "H")
    goals = frozenset(r * C + c for r in range(R) for c in range(C) if rows[r][c] == "G")
    start = next(r * C + c for r in range(R) for c in range(C) if rows[r][c] == "S")
    terminal = holes | goals

    transition = np.zeros((S, A, S))
    cost_c = np.zeros((S, A))
    cost_g = np.zeros((S, A, 1))
    moves = {ACTION_NORTH: (-1, 0), ACTION_SOUTH: (1, 0),
             ACTION_EAST: (0, 1), ACTION_WEST: (0, -1)}
    for r in range(R):
        for c in range(C):
            x = r * C + c
            if x in terminal:
                transition[x, :, x] = 1.0
                continue
            for a, (dr, dc) in moves.items():
                nr, nc = r + dr, c + dc
                if 0 <= nr < R and 0 <= nc < C:
                    nx = nr * C + nc
                else:
                    nx = x
                transition[x, a, nx] = 1.0
                if nx in goals:
                    cost_c[x, a] = -1.0
                if nx in holes:
                    cost_g[x, a, 0] = 1.0

    initial = np.zeros(S)
    initial[start] = 1.0
    metadata = {"layout": tuple(rows), "grid_shape": (R, C), "start": start,
                "goals": goals, "holes": holes}
    return TabularMdp(transition, cost_c, cost_g, gamma, initial,
                      terminal_states=terminal, metadata=metadata)


# Standard 8x8 layout.
FROZENLAKE_8X8 = (
    "SFFFFFFF",
    "FFFFFFFF",
    "FFFHFFFF",
    "FFFFFHFF",
    "FFFHFFFF",
    "FHHFFFHF",
    "FHFFHFHF",
    "FFFHFFFG",
)


def build_combination_lock(n, gamma=0.9):
    """Chain of n states: action 0 resets to the start, action 1 advances.

    The only nonzero cost is -1 on the transition entering the last state,
    which is terminal. No constraint channels (m = 0).
    """
    n = int(n)
    if n < 2:
        raise ValueError("combination lock needs at least 2 states")
    S, A = n, 2
    transition = np.zeros((S, A, S))
    cost_c = np.zeros((S, A))
    cost_g = np.zeros((S, A, 0))
    for x in range(n - 1):
        transition[x, 0, 0] = 1.0
        transition[x, 1, x + 1] = 1.0
    transition[n - 1, :, n - 1] = 1.0
    cost_c[n - 2, 1] = -1.0
    initial = np.zeros(S)
    initial[0] = 1.0
    return TabularMdp(transition, cost_c, cost_g, gamma, initial,
                      terminal_states={n - 1})


def build_random_mdp(num_states, num_actions, m, seed, gamma=0.9):
    """Random ergodic MDP with simplex-drawn transition rows and uniform costs."""
    num_states, num_actions, m = int(num_states), int(num_actions), int(m)
    if num_states < 1 or num_actions < 1 or m < 0:
        raise ValueError("num_states and num_actions must be >= 1, m >= 0")
    rng = np.random.default_rng(seed)
    transition = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    transition /= transition.sum(axis=2, keepdims=True)
    cost_c = rng.uniform(0.0, 1.0, size=(num_states, num_actions))
    cost_g = rng.uniform(0.0, 1.0, size=(num_states, num_actions, m))
    initial = np.full(num_states, 1.0 / num_states)
    return TabularMdp(transition, cost_c, cost_g, gamma, initial)
