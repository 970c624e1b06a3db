"""The FrozenLake builders against the per-cell loops and the BFS they
replaced, kept here verbatim as references: the map, its shortest-path
behavior and the full-coverage data must equal them bit for bit."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpl.dataset import (Dataset, full_coverage_dataset,
                          make_frozenlake_behavior)
from cbpl.mdp import (ACTION_EAST, ACTION_NORTH, ACTION_SOUTH, ACTION_WEST,
                      StochasticPolicy, TabularMdp, _parse_layout,
                      build_frozenlake)

EPSILONS = (0.0, 1.0 / 3.0, 0.5, 0.95, 1.0)
DATASET_COLUMNS = ("traj_id", "t", "x", "a", "x_next", "c", "g", "done",
                   "behavior_prob")


def reference_build_frozenlake(layout, gamma=0.95):
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


def reference_make_frozenlake_behavior(mdp, epsilon_random):
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


def reference_full_coverage_dataset(mdp):
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


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_value(got, want):
    """Equal values of the same type, down to the elements of a tuple or a
    frozenset (so a numpy integer does not pass for an int)."""
    assert type(got) is type(want) and got == want
    if isinstance(want, (tuple, frozenset)):
        assert ([type(v) for v in sorted(got)]
                == [type(v) for v in sorted(want)])


def assert_same_builders(layout, epsilon):
    got, want = build_frozenlake(layout), reference_build_frozenlake(layout)
    for name in ("transition", "cost_c", "cost_g", "initial_dist",
                 "terminal_mask"):
        assert_same_array(getattr(got, name), getattr(want, name))
    assert_same_value(got.gamma, want.gamma)
    assert_same_value(got.terminal_states, want.terminal_states)
    assert got.metadata.keys() == want.metadata.keys()
    for key, value in want.metadata.items():
        assert_same_value(got.metadata[key], value)

    assert_same_array(make_frozenlake_behavior(got, epsilon).probs,
                      reference_make_frozenlake_behavior(want, epsilon).probs)

    got_data = full_coverage_dataset(got)
    want_data = reference_full_coverage_dataset(want)
    for name in DATASET_COLUMNS:
        assert_same_array(getattr(got_data, name), getattr(want_data, name))


@st.composite
def layouts(draw):
    """Grids up to 6x6: one S, one to three G, every other cell F or H."""
    R = draw(st.integers(1, 6))
    C = draw(st.integers(2 if R == 1 else 1, 6))
    cells = draw(st.lists(st.sampled_from("FH"), min_size=R * C,
                          max_size=R * C))
    order = draw(st.permutations(range(R * C)))
    num_goals = draw(st.integers(1, min(3, R * C - 1)))
    cells[order[0]] = "S"
    for i in order[1:1 + num_goals]:
        cells[i] = "G"
    return tuple("".join(cells[r * C:(r + 1) * C]) for r in range(R))


FIXED_LAYOUTS = {
    # Holes wall the start in; no state can reach the goal.
    "start_walled_in": ("SH", "HG"),
    # Holes wall in the start's corner; the rest reaches the goal.
    "start_corner_walled_in": ("SFH", "FHF", "HFG"),
    "two_goals": ("GFFFS", "FHFHF", "FFFFG"),
    "single_row": ("FSFHFG",),
    "goal_beside_start": ("FFF", "FSG", "HFF"),
}


class TestAgainstReferences:
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @settings(max_examples=60, deadline=None)
    @given(layout=layouts())
    def test_random_layouts(self, layout, epsilon):
        assert_same_builders(layout, epsilon)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("name", sorted(FIXED_LAYOUTS))
    def test_fixed_layouts(self, name, epsilon):
        assert_same_builders(FIXED_LAYOUTS[name], epsilon)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_walled_in_start_gets_uniform_rows(self, epsilon):
        mdp = build_frozenlake(FIXED_LAYOUTS["start_walled_in"])
        probs = make_frozenlake_behavior(mdp, epsilon).probs
        assert (probs == 0.25).all()

    def test_goal_beside_start_is_entered(self):
        mdp = build_frozenlake(FIXED_LAYOUTS["goal_beside_start"])
        probs = make_frozenlake_behavior(mdp, 0.0).probs
        assert probs[mdp.metadata["start"], ACTION_EAST] == 1.0
