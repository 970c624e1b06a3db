"""Off-policy data: collection, trajectory-structured storage, persistence,
and trajectory-level subsampling.

The on-disk format is CSV with header
``traj_id,t,x,a,x_next,c,g_1,...,g_m,done,behavior_prob``; reals are printed
with 17 significant digits so round-trips are exact.
"""

import collections

import numpy as np

from .mdp import StochasticPolicy, as_stochastic


class Dataset:
    """Columnar batch of transitions grouped into contiguous trajectories."""

    def __init__(self, traj_id, t, x, a, x_next, c, g, done, behavior_prob):
        self.traj_id = np.asarray(traj_id, dtype=np.int64)
        self.t = np.asarray(t, dtype=np.int64)
        self.x = np.asarray(x, dtype=np.int64)
        self.a = np.asarray(a, dtype=np.int64)
        self.x_next = np.asarray(x_next, dtype=np.int64)
        self.c = np.asarray(c, dtype=float)
        g_arr = np.asarray(g, dtype=float)
        if g_arr.ndim != 2:
            if len(self.c):
                g_arr = g_arr.reshape(len(self.c), -1)
            else:
                g_arr = g_arr.reshape(0, 0)
        self.g = g_arr
        self.done = np.asarray(done, dtype=bool)
        self.behavior_prob = np.asarray(behavior_prob, dtype=float)
        n = len(self.traj_id)
        for arr in (self.t, self.x, self.a, self.x_next, self.c, self.done,
                    self.behavior_prob):
            if len(arr) != n:
                raise ValueError("all columns must have equal length")
        if n and self.behavior_prob.min() <= 0:
            raise ValueError("behavior_prob must be positive")
        if n and self.g.min(initial=0.0) < 0:
            raise ValueError("constraint costs must be nonnegative")
        self._starts, self._stops = self._build_index()

    def _build_index(self):
        """Start and stop rows of each trajectory, found by adjacent
        differences. The first trajectory in file order that repeats an
        earlier id, skips a timestep or breaks the x_next -> x chain raises."""
        n = len(self.traj_id)
        new = np.ones(n, dtype=bool)
        new[1:] = self.traj_id[1:] != self.traj_id[:-1]
        starts = np.flatnonzero(new)
        ids = self.traj_id[starts]
        _, first, inverse = np.unique(ids, return_index=True,
                                      return_inverse=True)
        traj_of_row = np.cumsum(new) - 1
        inner = ~new[1:]
        failures = (
            (np.flatnonzero(first[inverse] != np.arange(len(ids))),
             "is not contiguous"),
            (traj_of_row[1:][inner & (np.diff(self.t) != 1)],
             "has non-consecutive timesteps"),
            (traj_of_row[1:][inner & (self.x_next[:-1] != self.x[1:])],
             "breaks the chain x_next == next x"),
        )
        found = [(k[0], i, what) for i, (k, what) in enumerate(failures)
                 if len(k)]
        if found:
            k, _, what = min(found)
            raise ValueError(f"trajectory {ids[k]} {what}")
        return starts, np.append(starts[1:], n)

    def __len__(self):
        return len(self.traj_id)

    @property
    def m(self):
        return self.g.shape[1]

    @property
    def num_trajectories(self):
        return len(self._starts)

    def trajectory_bounds(self):
        """Start and stop row arrays of the trajectories, in file order."""
        return self._starts, self._stops

    def trajectory_slices(self):
        """(traj_id, start, stop) in file order."""
        return list(zip(self.traj_id[self._starts].tolist(),
                        self._starts.tolist(), self._stops.tolist()))

    @classmethod
    def empty(cls, m):
        z = np.zeros(0)
        return cls(z, z, z, z, z, z, np.zeros((0, m)), z, np.ones(0))


def collect(mdp, behavior, num_trajectories, max_horizon, rng):
    """Roll out the behavior policy from the initial distribution.

    Each trajectory runs until a terminal state or max_horizon steps; the
    done flag marks whether x_next is terminal, so horizon truncation is
    distinguishable from termination.
    """
    if num_trajectories < 0 or max_horizon < 1:
        raise ValueError("need num_trajectories >= 0 and max_horizon >= 1")
    probs = as_stochastic(behavior, mdp.num_actions)
    cum_behavior = np.cumsum(probs, axis=1)
    cum_transition = mdp.cumulative_transition()
    cum_initial = np.cumsum(mdp.initial_dist)
    terminal = mdp.terminal_mask
    S = mdp.num_states

    traj_id, ts, xs, aa, xn, cs, gs, dn, bp = [], [], [], [], [], [], [], [], []
    for tid in range(num_trajectories):
        x = int(np.searchsorted(cum_initial, rng.random(), side="right"))
        x = min(x, S - 1)
        for t in range(max_horizon):
            if terminal[x]:
                break
            a = int(np.searchsorted(cum_behavior[x], rng.random(), side="right"))
            a = min(a, mdp.num_actions - 1)
            nx = int(np.searchsorted(cum_transition[x, a], rng.random(), side="right"))
            nx = min(nx, S - 1)
            traj_id.append(tid)
            ts.append(t)
            xs.append(x)
            aa.append(a)
            xn.append(nx)
            cs.append(mdp.cost_c[x, a])
            gs.append(mdp.cost_g[x, a])
            dn.append(bool(terminal[nx]))
            bp.append(probs[x, a])
            if terminal[nx]:
                break
            x = nx
    g = np.asarray(gs, dtype=float).reshape(len(cs), mdp.m)
    return Dataset(traj_id, ts, xs, aa, xn, cs, g, dn, bp)


def make_frozenlake_behavior(mdp, epsilon_random):
    """Mixture of uniform-random and BFS shortest-path-to-goal actions.

    pi(a|x) = epsilon/|A| + (1 - epsilon) * 1[a = shortest_path_action(x)].
    Shortest paths avoid holes; ties go to the lowest action index; states
    with no hole-free path to a goal get a uniform row.
    """
    if not 0.0 <= epsilon_random <= 1.0:
        raise ValueError("epsilon_random must lie in [0, 1]")
    goals = mdp.metadata.get("goals")
    holes = mdp.metadata.get("holes", frozenset())
    if goals is None:
        raise ValueError("mdp does not carry gridworld metadata")
    S, A = mdp.num_states, mdp.num_actions
    next_state = np.argmax(mdp.transition, axis=2)  # deterministic moves

    # Multi-source BFS from the goals over reversed edges, never through holes.
    dist = np.full(S, -1, dtype=np.int64)
    queue = collections.deque()
    for gstate in sorted(goals):
        dist[gstate] = 0
        queue.append(gstate)
    predecessors = collections.defaultdict(list)
    for x in range(S):
        if mdp.terminal_mask[x]:
            continue
        for a in range(A):
            predecessors[int(next_state[x, a])].append(x)
    while queue:
        y = queue.popleft()
        for x in predecessors[y]:
            if dist[x] < 0 and x not in holes:
                dist[x] = dist[y] + 1
                queue.append(x)

    probs = np.full((S, A), 1.0 / A)
    for x in range(S):
        if mdp.terminal_mask[x] or dist[x] < 0:
            continue
        for a in range(A):
            nx = int(next_state[x, a])
            if nx not in holes and dist[nx] == dist[x] - 1:
                row = np.full(A, epsilon_random / A)
                row[a] += 1.0 - epsilon_random
                probs[x] = row
                break
    return StochasticPolicy(probs)


def check_indices(data, num_states, num_actions):
    """Raise ValueError naming the first row (1-based) whose x or x_next lies
    outside [0, num_states) or whose a lies outside [0, num_actions)."""
    for name, upper in (("x", num_states), ("x_next", num_states),
                        ("a", num_actions)):
        col = getattr(data, name)
        bad = np.flatnonzero((col < 0) | (col >= upper))
        if len(bad):
            raise ValueError(f"row {bad[0] + 1} has {name} = {col[bad[0]]}, "
                             f"outside [0, {upper})")


def subsample(dataset, fraction, rng):
    """Draw whole trajectories uniformly at random until the accumulated
    transition count first reaches fraction * total transitions."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    if len(dataset) == 0:
        raise ValueError("cannot subsample an empty dataset")
    starts, stops = dataset.trajectory_bounds()
    order = rng.permutation(len(starts))
    lengths = (stops - starts)[order]
    counts = np.cumsum(lengths)
    # The first k trajectories of the permutation: the k-th reaches the target.
    k = int(np.searchsorted(counts, fraction * len(dataset))) + 1
    chosen = starts[order[:k]] - (counts[:k] - lengths[:k])
    sel = np.arange(counts[k - 1]) + np.repeat(chosen, lengths[:k])
    return Dataset(dataset.traj_id[sel], dataset.t[sel], dataset.x[sel],
                   dataset.a[sel], dataset.x_next[sel], dataset.c[sel],
                   dataset.g[sel], dataset.done[sel], dataset.behavior_prob[sel])


def full_coverage_dataset(mdp):
    """One transition per non-terminal (x, a) of a deterministic MDP.

    Each sample forms its own length-1 trajectory; behavior_prob is uniform.
    Useful wherever full (x, a) coverage with the exact empirical model is
    needed (the transition recorded is the argmax of each row).
    """
    S, A = mdp.num_states, mdp.num_actions
    next_state = np.argmax(mdp.transition, axis=2)
    rows = [(x, a) for x in range(S) if not mdp.terminal_mask[x] for a in range(A)]
    xs = np.array([r[0] for r in rows], dtype=np.int64)
    aa = np.array([r[1] for r in rows], dtype=np.int64)
    nx = next_state[xs, aa]
    n = len(rows)
    return Dataset(np.arange(n), np.zeros(n), xs, aa, nx,
                   mdp.cost_c[xs, aa], mdp.cost_g[xs, aa],
                   mdp.terminal_mask[nx], np.full(n, 1.0 / A))


def save(dataset, path):
    """Write the CSV representation (17 significant digits for reals)."""
    m = dataset.m
    header = "traj_id,t,x,a,x_next,c"
    if m:
        header += "," + ",".join(f"g_{i + 1}" for i in range(m))
    header += ",done,behavior_prob"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(len(dataset)):
            gpart = "".join(f"{dataset.g[i, j]:.17g}," for j in range(m))
            fh.write(f"{dataset.traj_id[i]},{dataset.t[i]},{dataset.x[i]},"
                     f"{dataset.a[i]},{dataset.x_next[i]},{dataset.c[i]:.17g},"
                     f"{gpart}{int(dataset.done[i])},"
                     f"{dataset.behavior_prob[i]:.17g}\n")


def load(path):
    """Inverse of save; malformed rows raise with the 1-based line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: line 1: missing header")
    header = lines[0].split(",")
    fixed_head = ["traj_id", "t", "x", "a", "x_next", "c"]
    fixed_tail = ["done", "behavior_prob"]
    if header[:6] != fixed_head or header[-2:] != fixed_tail:
        raise ValueError(f"{path}: line 1: unrecognized header")
    gcols = header[6:-2]
    if gcols != [f"g_{i + 1}" for i in range(len(gcols))]:
        raise ValueError(f"{path}: line 1: malformed constraint columns")
    m = len(gcols)
    width = len(header)
    traj_id, ts, xs, aa, xn, cs, dn, bp = [], [], [], [], [], [], [], []
    g = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} fields, "
                             f"got {len(parts)}")
        try:
            traj_id.append(int(parts[0]))
            ts.append(int(parts[1]))
            xs.append(int(parts[2]))
            aa.append(int(parts[3]))
            xn.append(int(parts[4]))
            cs.append(float(parts[5]))
            g.append([float(v) for v in parts[6:6 + m]])
            done_field = int(parts[6 + m])
            if done_field not in (0, 1):
                raise ValueError("done must be 0 or 1")
            dn.append(bool(done_field))
            bp.append(float(parts[7 + m]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    garr = np.asarray(g, dtype=float).reshape(len(cs), m)
    return Dataset(traj_id, ts, xs, aa, xn, cs, garr, dn, bp)


def datasets_equal(d1, d2):
    """Field-for-field equality (used by round-trip tests)."""
    return (len(d1) == len(d2) and d1.m == d2.m
            and np.array_equal(d1.traj_id, d2.traj_id)
            and np.array_equal(d1.t, d2.t)
            and np.array_equal(d1.x, d2.x)
            and np.array_equal(d1.a, d2.a)
            and np.array_equal(d1.x_next, d2.x_next)
            and np.array_equal(d1.c, d2.c)
            and np.array_equal(d1.g, d2.g)
            and np.array_equal(d1.done, d2.done)
            and np.array_equal(d1.behavior_prob, d2.behavior_prob))
