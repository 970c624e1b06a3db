"""Off-policy data: collection, trajectory-structured storage, persistence,
and trajectory-level subsampling.

The on-disk format is CSV with header
``traj_id,t,x,a,x_next,c,g_1,...,g_m,done,behavior_prob``; reals are printed
with 17 significant digits so round-trips are exact. write_csv and read_csv
are the toolkit's one CSV writer and one CSV reader: datasets here, policy
and mixture files in cbpl.cli.
"""

import bisect
import itertools
import os

import numpy as np

from .mdp import StochasticPolicy, as_stochastic

_DRAW_CHUNK = 2**16  # uniforms per bulk draw in collect
_WRITE_ROWS = 2**15  # rows per write in write_csv
_SCAN_CHARS = 2**20  # characters per read when load checks a body
# The ASCII line breaks of str.splitlines other than \n and \r.
_EXTRA_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


class Dataset:
    """Columnar batch of transitions grouped into contiguous trajectories."""

    def __init__(self, traj_id, t, x, a, x_next, c, g, done, behavior_prob):
        self.traj_id = np.asarray(traj_id, dtype=np.int64)
        self.t = np.asarray(t, dtype=np.int64)
        self.x = np.asarray(x, dtype=np.int64)
        self.a = np.asarray(a, dtype=np.int64)
        self.x_next = np.asarray(x_next, dtype=np.int64)
        self.c = np.asarray(c, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.done = np.asarray(done, dtype=bool)
        self.behavior_prob = np.asarray(behavior_prob, dtype=float)
        n = len(self.traj_id)
        for arr in (self.t, self.x, self.a, self.x_next, self.c, self.done,
                    self.behavior_prob):
            if len(arr) != n:
                raise ValueError("all columns must have equal length")
        if self.g.ndim != 2 or len(self.g) != n:
            raise ValueError("g must have shape (rows, m)")
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
        return starts, (np.append(starts[1:], n) if n else starts)

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


def collect(mdp, behavior, num_trajectories, max_horizon, rng):
    """Roll out the behavior policy from the initial distribution.

    Each trajectory runs until a terminal state or max_horizon steps; the
    done flag marks whether x_next is terminal, so horizon truncation is
    distinguishable from termination.

    Uniforms are drawn in bulk, since ``rng.random(n)`` yields the same
    numbers as n calls to ``rng.random()``. The generator is then rewound
    and redrawn by exactly the count used, so it ends where one draw per
    sampling step would leave it.
    """
    if num_trajectories < 0 or max_horizon < 1:
        raise ValueError("need num_trajectories >= 0 and max_horizon >= 1")
    S, A = mdp.num_states, mdp.num_actions
    probs = as_stochastic(behavior, S, A)
    cum_initial = _sentinel_cumsum(mdp.initial_dist).tolist()
    cum_behavior = _sentinel_cumsum(probs).tolist()
    # Row k = x * A + a holds the cumulative P(. | x, a).
    cum_transition = _sentinel_cumsum(mdp.transition).reshape(S * A, S)
    cum_transition = cum_transition.tolist()
    terminal = mdp.terminal_mask.tolist()

    state = rng.bit_generator.state
    uniforms = itertools.chain.from_iterable(
        iter(lambda: rng.random(_DRAW_CHUNK).tolist(), None))
    draw = uniforms.__next__
    bisect_right = bisect.bisect_right
    ks, xn, lengths = [], [], []
    for _ in range(num_trajectories):
        x = bisect_right(cum_initial, draw())
        before = len(ks)
        for _ in range(max_horizon):
            if terminal[x]:
                break
            k = x * A + bisect_right(cum_behavior[x], draw())
            x = bisect_right(cum_transition[k], draw())
            ks.append(k)
            xn.append(x)
            if terminal[x]:
                break
        lengths.append(len(ks) - before)
    # One draw per start state and two per step.
    used = num_trajectories + 2 * len(ks)
    rng.bit_generator.state = state
    for drawn in range(0, used, _DRAW_CHUNK):
        rng.random(min(_DRAW_CHUNK, used - drawn))

    xs, aa = np.divmod(np.array(ks, dtype=np.int64), A)
    del ks  # free the list before the dataset's columns are built
    xn = np.array(xn, dtype=np.int64)
    lengths = np.array(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    t = np.arange(len(xs)) - np.repeat(starts, lengths)
    return Dataset(np.repeat(np.arange(num_trajectories), lengths), t, xs, aa,
                   xn, mdp.cost_c[xs, aa], mdp.cost_g[xs, aa],
                   mdp.terminal_mask[xn], probs[xs, aa])


def _sentinel_cumsum(table):
    """Cumulative sums along the last axis with each row's last entry set to
    inf. For a nonnegative row and u < inf, bisect_right on the result equals
    min(bisect_right(plain cumsum, u), len - 1), so no clamp is needed."""
    cum = np.cumsum(table, axis=-1)
    cum[..., -1] = np.inf
    return cum


def make_frozenlake_behavior(mdp, epsilon_random):
    """Mixture of uniform-random and shortest-path-to-goal actions.

    pi(a|x) = epsilon/|A| + (1 - epsilon) * 1[a = shortest_path_action(x)].
    Shortest paths avoid holes; ties go to the lowest action index; states
    with no hole-free path to a goal get a uniform row. The path lengths are
    the fixed point of dist(x) = 1 + min_a dist(succ(x, a)) over the states
    that move (neither terminal nor holes), with goals at 0, found by
    relaxing every state at once until nothing changes.
    """
    if not 0.0 <= epsilon_random <= 1.0:
        raise ValueError("epsilon_random must lie in [0, 1]")
    goals = mdp.metadata.get("goals")
    holes = mdp.metadata.get("holes", frozenset())
    if goals is None:
        raise ValueError("mdp does not carry gridworld metadata")
    S, A = mdp.num_states, mdp.num_actions
    succ = np.argmax(mdp.transition, axis=2)  # deterministic moves
    moving = ~mdp.terminal_mask
    moving[list(holes)] = False
    dist = np.full(S, np.inf)
    dist[list(goals)] = 0.0
    while True:
        relaxed = np.where(moving, dist[succ].min(axis=1) + 1.0, dist)
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed

    rows = np.flatnonzero(moving & (dist < np.inf))
    first = dist[succ[rows]].argmin(axis=1)
    probs = np.full((S, A), 1.0 / A)
    probs[rows] = epsilon_random / A
    probs[rows, first] += 1.0 - epsilon_random
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


def implied_shape(data):
    """The (S, A) of data read without a map: one past its largest state
    (x or x_next) and one past its largest action."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    return (int(max(data.x.max(), data.x_next.max())) + 1,
            int(data.a.max()) + 1)


def draw_trajectories(dataset, fraction, rng):
    """Draw whole trajectories uniformly at random until the accumulated
    transition count first reaches fraction * total transitions. Returns
    their indices in draw order and their rows, trajectory by trajectory."""
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
    return order[:k], np.arange(counts[k - 1]) + np.repeat(chosen, lengths[:k])


def subsample(dataset, fraction, rng):
    """The Dataset of the trajectories draw_trajectories picks."""
    _, sel = draw_trajectories(dataset, fraction, rng)
    d = dataset
    return Dataset(d.traj_id[sel], d.t[sel], d.x[sel], d.a[sel], d.x_next[sel],
                   d.c[sel], d.g[sel], d.done[sel], d.behavior_prob[sel])


def full_coverage_dataset(mdp):
    """One transition per non-terminal (x, a) of a deterministic MDP.

    Each sample forms its own length-1 trajectory; behavior_prob is uniform.
    Useful wherever full (x, a) coverage with the exact empirical model is
    needed (the transition recorded is the argmax of each row).
    """
    S, A = mdp.num_states, mdp.num_actions
    next_state = np.argmax(mdp.transition, axis=2)
    xs, aa = np.nonzero(np.repeat(~mdp.terminal_mask[:, None], A, axis=1))
    nx = next_state[xs, aa]
    n = len(xs)
    return Dataset(np.arange(n), np.zeros(n), xs, aa, nx,
                   mdp.cost_c[xs, aa], mdp.cost_g[xs, aa],
                   mdp.terminal_mask[nx], np.full(n, 1.0 / A))


def _column_texts(values, end):
    """Object array of each entry's CSV text followed by end. Each distinct
    value is formatted once: reals with '.17g' by bit pattern (so -0.0 and
    0.0 stay apart), anything else (ints, strings) with str."""
    if values.dtype.kind == "f":
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        text = [f"{v:.17g}{end}" for v in bits.view(np.float64).tolist()]
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        text = [f"{v}{end}" for v in distinct.tolist()]
    return np.array(text, dtype=object)[inverse]


def write_csv(dest, header, columns):
    """Write a header line and the rows of equal-length 1-d columns to dest,
    a path or an open text stream: ints and strings with str, float64 with
    17 significant digits (so a read gives back the same bits), one write
    per chunk of rows."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fh:
            return write_csv(fh, header, columns)
    columns = [np.asarray(col) for col in columns]
    ends = [","] * (len(columns) - 1) + ["\n"]
    dest.write(header + "\n")
    for lo in range(0, len(columns[0]), _WRITE_ROWS):
        fields = np.column_stack([_column_texts(col[lo:lo + _WRITE_ROWS], end)
                                  for col, end in zip(columns, ends)])
        dest.write("".join(fields.ravel().tolist()))


def save(dataset, path):
    """Write the CSV representation (17 significant digits for reals)."""
    d = dataset
    g_names = "".join(f",g_{i + 1}" for i in range(d.m))
    write_csv(path, f"traj_id,t,x,a,x_next,c{g_names},done,behavior_prob",
              (d.traj_id, d.t, d.x, d.a, d.x_next, d.c, *d.g.T,
               d.done.astype(np.int64), d.behavior_prob))


def _dataset_fields(header, path):
    """The column kinds of a dataset header split at commas; ValueError
    names line 1."""
    fixed_head = ["traj_id", "t", "x", "a", "x_next", "c"]
    fixed_tail = ["done", "behavior_prob"]
    if header[:6] != fixed_head or header[-2:] != fixed_tail:
        raise ValueError(f"{path}: line 1: unrecognized header")
    gcols = header[6:-2]
    if gcols != [f"g_{i + 1}" for i in range(len(gcols))]:
        raise ValueError(f"{path}: line 1: malformed constraint columns")
    floats = [np.float64] * (1 + len(gcols))  # c, g_1..g_m
    return [np.int64] * 5 + floats + [bool, np.float64]


def load(path):
    """Inverse of save; malformed rows raise with the 1-based line number."""
    columns = read_csv(path, _dataset_fields)
    n, m = len(columns[0]), len(columns) - 8
    g = np.array(columns[6:-2], dtype=float).reshape(m, n).T.copy()
    return Dataset(*columns[:6], g, *columns[-2:])


def read_csv(path, fields):
    """The columns of a CSV file with a header line, as 1-d arrays.

    fields(header, path) gets the header line split at commas, raises for a
    header it does not take and returns each column's kind: np.int64,
    np.float64 or bool (a field that must read 0 or 1). Blank lines are
    skipped; the first malformed row, or a byte that is not UTF-8, raises a
    ValueError naming the file and its 1-based line. Integers must fit
    int64.
    """
    try:
        return _loadtxt_columns(path, fields)
    except ValueError:
        # Only the per-line parser names the line at fault.
        return _parsed_columns(path, fields)


def _loadtxt_columns(path, fields):
    """The columns parsed by one np.loadtxt. Raises ValueError for a body that
    loadtxt rejects or might read differently from _parsed_columns: one that
    is not ASCII, holds a line break only str.splitlines knows, has no rows
    (loadtxt warns on those) or a flag other than 0 and 1."""
    with open(path, "r", encoding="utf-8") as fh:
        kinds = fields(fh.readline().rstrip("\n").split(","), path)
        blank = True
        for chunk in iter(lambda: fh.read(_SCAN_CHARS), ""):
            if not chunk.isascii() or any(b in chunk for b in _EXTRA_BREAKS):
                raise ValueError("body needs the per-line parser")
            blank = blank and chunk.isspace()
    if blank:
        raise ValueError("body has no rows")
    dtype = [("", np.int64 if kind is bool else kind) for kind in kinds]
    columns = np.loadtxt(path, dtype, delimiter=",", comments=None,
                         skiprows=1, ndmin=1, encoding="utf-8", unpack=True)
    if any(kind is bool and not np.isin(col, (0, 1)).all()
           for col, kind in zip(columns, kinds)):
        raise ValueError("flag outside 0 and 1")
    return [np.array(col, dtype=kind) for col, kind in zip(columns, kinds)]


def _parsed_columns(path, fields):
    """The columns parsed line by line, each field with int, float or a 0/1
    check; the first malformed row, or the first byte that is not UTF-8,
    raises a ValueError naming its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; the bad one starts or
        # continues the last of their lines.
        lineno = len((raw[:exc.start].decode("utf-8") + "_").splitlines())
        raise ValueError(f"{path}: line {lineno}: byte "
                         f"0x{raw[exc.start]:02x} is not UTF-8") from None
    if not lines:
        raise ValueError(f"{path}: line 1: missing header")
    header = lines[0].split(",")
    kinds = fields(header, path)
    columns = [[] for _ in kinds]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(kinds):
            raise ValueError(f"{path}: line {lineno}: expected {len(kinds)} "
                             f"fields, got {len(parts)}")
        try:
            for j, text in enumerate(parts):
                columns[j].append(_parse_field(text, header[j], kinds[j]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return [np.array(col, dtype=kind) for col, kind in zip(columns, kinds)]


def _parse_field(text, name, kind):
    """The value of one field of column name: a float, or an int that must
    fit int64 and, for a flag (kind bool), be 0 or 1."""
    if kind is np.float64:
        return float(text)
    value = int(text)
    if kind is bool and value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1")
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError("integer field outside the int64 range")
    return value
