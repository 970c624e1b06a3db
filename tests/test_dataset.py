import bisect
import hashlib

import numpy as np
import pytest

from cbpl.batchrl import CostSelector, fqe, fqi
from cbpl.dataset import (Dataset, _sentinel_cumsum, check_indices, collect,
                          draw_trajectories, full_coverage_dataset, load,
                          make_frozenlake_behavior, save, subsample)
from cbpl.funcapprox import QFunction
from cbpl.mdp import (ACTION_EAST, DeterministicPolicy, StochasticPolicy,
                      as_stochastic, build_combination_lock, build_frozenlake,
                      build_random_mdp)
from cbpl.ope import ope_comparison, pdis

from conftest import FROZENLAKE_4X4, assert_same_dataset, one_state_mdp


def chain_dataset(traj_id, t, x, x_next):
    """Rows with the given structure columns; a = 0, zero costs."""
    n = len(traj_id)
    return Dataset(traj_id, t, x, np.zeros(n), x_next, np.zeros(n),
                   np.zeros((n, 1)), np.zeros(n, dtype=bool), np.ones(n))


def empty_dataset(m):
    """A dataset of zero rows and m constraint channels."""
    z = np.zeros(0)
    return Dataset(z, z, z, z, z, z, np.zeros((0, m)), z, z)


def reference_collect(mdp, behavior, num_trajectories, max_horizon, rng):
    """The per-step rollout collect replaced: three scalar draws per step."""
    probs = as_stochastic(behavior, mdp.num_states, mdp.num_actions)
    cum_behavior = np.cumsum(probs, axis=1)
    cum_transition = np.cumsum(mdp.transition, axis=2)
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


def reference_load(path):
    """The line-by-line load that load falls back to for error reports."""
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
            if not all(-2 ** 63 <= int(v) < 2 ** 63 for v in parts[:5]):
                raise ValueError("integer field outside the int64 range")
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


def reference_save(data, path):
    """A per-row writer: one ",".join per row, str for ints and '.17g' for
    reals."""
    header = ["traj_id", "t", "x", "a", "x_next", "c",
              *(f"g_{i + 1}" for i in range(data.m)), "done", "behavior_prob"]
    ints = zip(*(col.tolist() for col in (data.traj_id, data.t, data.x,
                                          data.a, data.x_next)))
    lines = [",".join(header)]
    for row, c, g, done, bp in zip(ints, data.c.tolist(), data.g.tolist(),
                                   data.done.tolist(),
                                   data.behavior_prob.tolist()):
        lines.append(",".join([*(str(v) for v in row),
                               *(f"{v:.17g}" for v in (c, *g)),
                               str(int(done)), f"{bp:.17g}"]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def outcome(load_fn, path):
    """("ok", dataset) or ("raises", exception type, message)."""
    try:
        return ("ok", load_fn(path))
    except Exception as exc:  # any exception is part of the outcome
        return ("raises", type(exc), str(exc))


class TestCollect:
    def test_degenerate_self_loop_fills_horizon(self):
        mdp = one_state_mdp(terminal=False)
        behavior = StochasticPolicy(np.ones((1, 1)))
        data = collect(mdp, behavior, 3, 5, np.random.default_rng(0))
        assert len(data) == 15
        assert not data.done.any()  # truncation, never termination
        assert data.num_trajectories == 3

    def test_frozenlake_propensities_bounded_below(self, fl8, fl8_behavior):
        data = collect(fl8, fl8_behavior, 200, 200, np.random.default_rng(0))
        assert len(data) > 0
        assert data.behavior_prob.min() >= 0.95 / 4 - 1e-12

    def test_determinism_under_fixed_seed(self, fl8, fl8_behavior, tmp_path):
        d1 = collect(fl8, fl8_behavior, 100, 200, np.random.default_rng(42))
        d2 = collect(fl8, fl8_behavior, 100, 200, np.random.default_rng(42))
        assert_same_dataset(d1, d2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save(d1, p1)
        save(d2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trajectory_chains_are_consistent(self, fl8_dataset):
        for s, e in zip(*fl8_dataset.trajectory_bounds()):
            assert np.array_equal(fl8_dataset.t[s:e], np.arange(e - s))
            assert np.array_equal(fl8_dataset.x_next[s:e - 1],
                                  fl8_dataset.x[s + 1:e])

    # seed: (SHA-256 of the saved CSV, rows, the generator's next draw), as
    # written by the per-step rollout.
    PINNED = {
        1: ("93bb3dd9da84180610aee234f99e202ff27f687f006f6c4a301887bfa618e9c2",
            144_281, 0.5258873310068153),
        2: ("8b905352df6cca81b01c91d500070bf1049f482988513dbcc00f8bb568032c28",
            144_284, 0.4374608941414755),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_paper_scale_bytes_and_next_draw_are_pinned(self, fl8, seed,
                                                        tmp_path):
        digest, rows, next_draw = self.PINNED[seed]
        rng = np.random.default_rng(seed)
        data = collect(fl8, make_frozenlake_behavior(fl8, 0.95), 5000, 200,
                       rng)
        path = tmp_path / "d.csv"
        save(data, path)
        assert len(data) == rows
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert rng.random() == next_draw

    # name: (on the random MDP, num_trajectories, max_horizon)
    CASES = {
        "fl8": (False, 200, 200),
        # Stochastic transitions, m = 2, no terminal state.
        "random_mdp": (True, 200, 20),
        "horizon_3": (False, 200, 3),
        "no_trajectories": (False, 0, 200),
        # About 70,000 uniforms: more than one bulk draw.
        "over_one_chunk": (False, 1200, 200),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
        np.random.MT19937, np.random.SFC64])
    def test_equals_per_step_rollout(self, fl8, fl8_behavior, case,
                                     bit_generator):
        random_mdp, trajectories, horizon = self.CASES[case]
        if random_mdp:
            mdp = build_random_mdp(6, 3, 2, seed=4)
            behavior = StochasticPolicy(np.full((6, 3), 1.0 / 3))
        else:
            mdp, behavior = fl8, fl8_behavior
        rng = np.random.Generator(bit_generator(7))
        ref_rng = np.random.Generator(bit_generator(7))
        data = collect(mdp, behavior, trajectories, horizon, rng)
        expected = reference_collect(mdp, behavior, trajectories, horizon,
                                     ref_rng)
        assert_same_dataset(data, expected)
        assert rng.random() == ref_rng.random()

    # name: behavior for the 64-state, 4-action fl8
    WRONG_SHAPE = {
        "too_few_rows": StochasticPolicy(np.full((63, 4), 0.25)),
        "too_many_rows": StochasticPolicy(np.full((65, 4), 0.25)),
        "too_many_actions": StochasticPolicy(np.full((64, 5), 0.2)),
        "deterministic_too_short": DeterministicPolicy(np.zeros(63, int)),
    }

    @pytest.mark.parametrize("name", sorted(WRONG_SHAPE))
    def test_behavior_table_must_match_the_mdp(self, fl8, name):
        with pytest.raises(ValueError, match=r"expected \(64, 4\)"):
            collect(fl8, self.WRONG_SHAPE[name], 10, 200,
                    np.random.default_rng(0))

    def test_behavior_action_off_the_map_raises(self, fl8):
        # Action -1 used to wrap to action 3, recorded with probability 1.
        behavior = DeterministicPolicy(np.full(64, -1))
        with pytest.raises(ValueError, match=r"action -1 at state 0"):
            collect(fl8, behavior, 2, 5, np.random.default_rng(0))

    def test_sentinel_row_equals_clamped_row(self, fl8, fl8_behavior):
        random_mdp = build_random_mdp(6, 3, 2, seed=4)
        tables = [fl8_behavior.probs, fl8.transition, fl8.initial_dist,
                  random_mdp.transition, random_mdp.initial_dist]
        for table in tables:
            plain = np.cumsum(table, axis=-1).reshape(-1, table.shape[-1])
            sentinel = _sentinel_cumsum(table).reshape(plain.shape)
            for row, walked in zip(plain.tolist(), sentinel.tolist()):
                us = [*row, *np.nextafter(row, -np.inf).tolist(),
                      *np.nextafter(row, np.inf).tolist(), 1 - 2 ** -53]
                for u in us:
                    expected = min(bisect.bisect_right(row, u), len(row) - 1)
                    assert bisect.bisect_right(walked, u) == expected, (row, u)

    def test_empirical_action_frequency_on_minimal_grid(self):
        # On the 1x2 grid with a uniform behavior, every recorded action is an
        # independent uniform draw over 4 actions, so the frequency of E is
        # binomial with p = 1/4.
        mdp = build_frozenlake(("SG",))
        behavior = make_frozenlake_behavior(mdp, 1.0)
        data = collect(mdp, behavior, 25_000, 500, np.random.default_rng(5))
        n = len(data)
        assert n >= 50_000
        freq = np.mean(data.a == ACTION_EAST)
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(freq - 0.25) <= 3 * sigma


class TestTrajectoryIndex:
    # name: (traj_id, t, x, x_next, message); each breaks one structural rule
    BROKEN = {
        "repeated_traj_id": ([0, 0, 1, 0], [0, 1, 0, 0], [0, 1, 5, 3],
                             [1, 2, 6, 4], "trajectory 0 is not contiguous"),
        "t_jump": ([0, 0, 1, 1], [0, 1, 0, 2], [0, 1, 5, 6], [1, 2, 6, 7],
                   "trajectory 1 has non-consecutive timesteps"),
        "broken_chain": ([0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 5, 9],
                         [1, 2, 6, 7],
                         "trajectory 1 breaks the chain x_next == next x"),
    }

    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_broken_structure_is_named(self, name):
        *columns, message = self.BROKEN[name]
        with pytest.raises(ValueError) as info:
            chain_dataset(*columns)
        assert str(info.value) == message

    def test_first_broken_trajectory_in_file_order_is_named(self):
        # Trajectory 3 skips a timestep before trajectory 4's id repeats 3.
        with pytest.raises(ValueError) as info:
            chain_dataset([3, 3, 4, 3], [0, 2, 0, 0], [0, 1, 2, 3],
                          [1, 2, 3, 4])
        assert str(info.value) == "trajectory 3 has non-consecutive timesteps"

    def test_bounds_and_count(self):
        data = chain_dataset([7, 7, 2, 5, 5, 5], [0, 1, 4, 0, 1, 2],
                             [0, 1, 9, 3, 4, 5], [1, 2, 9, 4, 5, 6])
        assert data.num_trajectories == 3
        starts, stops = data.trajectory_bounds()
        assert starts.tolist() == [0, 2, 3]
        assert stops.tolist() == [2, 3, 6]
        assert data.traj_id[starts].tolist() == [7, 2, 5]
        assert [len(v) for v in empty_dataset(1).trajectory_bounds()] == [0, 0]

    def test_g_must_have_one_row_per_transition(self):
        columns = dict(traj_id=[0, 0], t=[0, 1], x=[0, 1], a=[0, 0],
                       x_next=[1, 2], c=[0.0, 0.0], done=[False, True],
                       behavior_prob=[1.0, 1.0])
        assert Dataset(**columns, g=np.zeros((2, 2))).m == 2
        for g in (np.zeros(4), np.zeros(2), np.zeros((3, 1)),
                  np.zeros((1, 2)), np.zeros((2, 1, 1))):
            with pytest.raises(ValueError, match=r"g must have shape \(rows, m\)"):
                Dataset(**columns, g=g)


class TestFrozenlakeBehavior:
    def test_full_randomization_is_uniform(self, fl8):
        policy = make_frozenlake_behavior(fl8, 1.0)
        assert np.allclose(policy.probs, 0.25)

    def test_mixture_probabilities(self, fl8, fl8_behavior):
        # Non-terminal reachable states: one action at 0.95/4 + 0.05, the
        # rest at 0.95/4 = 0.2375.
        start_row = fl8_behavior.probs[0]
        assert np.isclose(sorted(start_row)[0], 0.2375)
        assert np.isclose(start_row.max(), 0.2375 + 0.05)

    def test_zero_epsilon_minimal_grid(self):
        mdp = build_frozenlake(("SG",))
        policy = make_frozenlake_behavior(mdp, 0.0)
        assert policy.probs[0, ACTION_EAST] == 1.0

    def test_requires_grid_metadata(self):
        mdp = build_combination_lock(3)
        with pytest.raises(ValueError):
            make_frozenlake_behavior(mdp, 0.5)

    def test_shortest_path_action_avoids_holes(self):
        # S F / H G: going south from start enters the hole, so the
        # shortest hole-free path is E then S.
        mdp = build_frozenlake(("SF", "HG"))
        policy = make_frozenlake_behavior(mdp, 0.0)
        assert policy.probs[0, ACTION_EAST] == 1.0


class TestSubsample:
    def test_full_fraction_is_permutation_equivalent(self, fl8_dataset):
        sub = subsample(fl8_dataset, 1.0, np.random.default_rng(0))
        assert len(sub) == len(fl8_dataset)
        assert sorted(sub.traj_id[sub.trajectory_bounds()[0]]) == sorted(
            fl8_dataset.traj_id[fl8_dataset.trajectory_bounds()[0]])

    def test_fraction_count_window(self):
        mdp = one_state_mdp(terminal=False)
        behavior = StochasticPolicy(np.ones((1, 1)))
        data = collect(mdp, behavior, 100, 10, np.random.default_rng(0))
        assert len(data) == 1000
        sub = subsample(data, 0.1, np.random.default_rng(1))
        assert 100 <= len(sub) < 110
        starts, stops = sub.trajectory_bounds()
        assert np.all(stops - starts == 10)

    def test_count_window_property(self, fl8_dataset):
        rng = np.random.default_rng(2)
        for fraction in (0.1, 0.3, 0.7):
            sub = subsample(fl8_dataset, fraction, rng)
            target = fraction * len(fl8_dataset)
            assert target <= len(sub) <= target + 200

    def test_determinism(self, fl8_dataset):
        s1 = subsample(fl8_dataset, 0.2, np.random.default_rng(3))
        s2 = subsample(fl8_dataset, 0.2, np.random.default_rng(3))
        assert_same_dataset(s1, s2)

    @pytest.mark.parametrize("fraction", [0.05, 0.3, 0.5, 0.77, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_first_trajectories_of_the_permutation(self, fl8_dataset,
                                                           fraction, seed):
        slices = list(zip(*fl8_dataset.trajectory_bounds()))
        order = np.random.default_rng(seed).permutation(len(slices))
        rows, picked, count = [], [], 0
        for idx in order:
            if count >= fraction * len(fl8_dataset):
                break
            s, e = slices[idx]
            rows.extend(range(s, e))
            picked.append(idx)
            count += e - s
        trajs, sel = draw_trajectories(fl8_dataset, fraction,
                                       np.random.default_rng(seed))
        assert trajs.tolist() == picked and sel.tolist() == rows
        d = fl8_dataset
        expected = Dataset(d.traj_id[rows], d.t[rows], d.x[rows], d.a[rows],
                           d.x_next[rows], d.c[rows], d.g[rows], d.done[rows],
                           d.behavior_prob[rows])
        sub = subsample(fl8_dataset, fraction, np.random.default_rng(seed))
        assert_same_dataset(sub, expected)

    def test_bad_arguments(self, fl8_dataset):
        with pytest.raises(ValueError):
            subsample(fl8_dataset, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            subsample(empty_dataset(1), 0.5, np.random.default_rng(0))


class TestPersistence:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save(empty_dataset(2), path)
        assert_same_dataset(load(path), empty_dataset(2))

    def test_single_sample_round_trip(self, tmp_path):
        data = Dataset([0], [0], [3], [1], [4], [-1.25], [[0.5]], [True], [0.3])
        path = tmp_path / "one.csv"
        save(data, path)
        assert_same_dataset(load(path), data)

    def test_frozenlake_dataset_round_trip_checksum(self, fl8_dataset, tmp_path):
        p1 = tmp_path / "d.csv"
        p2 = tmp_path / "d2.csv"
        save(fl8_dataset, p1)
        save(load(p1), p2)
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest(p1) == digest(p2)

    @staticmethod
    def random_rows(m, n):
        """n one-step trajectories with m constraint channels; half the c
        values repeat from a pool of 50."""
        rng = np.random.default_rng(3)
        pool = rng.normal(size=50)
        return Dataset(rng.permutation(n) * 1_000_003 - 10 ** 9, np.zeros(n),
                       rng.integers(0, 64, size=n), rng.integers(0, 4, size=n),
                       rng.integers(0, 64, size=n),
                       np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                                rng.normal(size=n)),
                       rng.random((n, m)), rng.random(n) < 0.3,
                       rng.uniform(0.01, 1.0, size=n))

    ZEROS = [-0.0, 0.0, 0.0, -0.0]
    TINY = [5e-324, 1e-300, 1 / 3]
    # name: dataset the writer must render as the per-row writer does
    WRITER_CASES = {
        "signed_zeros": lambda: Dataset(
            range(4), np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4),
            TestPersistence.ZEROS, np.array([TestPersistence.ZEROS[::-1]]).T,
            [True, False] * 2, np.ones(4)),
        "tiny_and_third": lambda: Dataset(
            range(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
            TestPersistence.TINY,
            np.array([TestPersistence.TINY[::-1], TestPersistence.TINY]).T,
            np.zeros(3), TestPersistence.TINY),
        "int64_extremes": lambda: Dataset(
            [-2 ** 63, 2 ** 63 - 1], [0, 0], [0, 5], [1, 2], [5, 0],
            [0.5, 0.5], np.zeros((2, 1)), [False, True], [0.5, 0.5]),
        # 2 and 0.25 in several columns, each with its own separator.
        "shared_values": lambda: Dataset(
            [2, 2, 2], [0, 1, 2], [2, 2, 2], [2, 2, 2], [2, 2, 2],
            [0.25, 0.25, 1.0], [[0.25], [1.0], [0.25]], [False, False, True],
            [0.25, 1.0, 0.25]),
        "m_0": lambda: TestPersistence.random_rows(0, 500),
        "m_3": lambda: TestPersistence.random_rows(3, 500),
        "two_chunks": lambda: TestPersistence.random_rows(2, 2 ** 15 + 7),
    }

    @pytest.mark.parametrize("name", sorted(WRITER_CASES))
    def test_writer_equals_per_row_writer(self, name, tmp_path):
        data = self.WRITER_CASES[name]()
        got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
        save(data, got)
        reference_save(data, expected)
        assert got.read_bytes() == expected.read_bytes()
        assert_same_dataset(load(got), data)

    def test_malformed_file_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("traj_id,t,x,a,x_next,c,g_1,done,behavior_prob\n"
                        "0,0,1,0,2,0.5,0.0,1,0.25\n"
                        "0,1,2,zero,3,0.5,0.0,1,0.25\n")
        with pytest.raises(ValueError, match="line 3"):
            load(path)

    GOOD = "0,0,1,0,2,0.5,0.0,0,0.25\n0,1,2,3,3,-0.0,1e-300,1,0.25\n"
    # name: body after the header; each must load as the per-line parser does
    BODIES = {
        "valid": GOOD,
        "float_in_traj_id": "1.0,0,1,0,2,0.5,0.0,1,0.25\n",
        "done_2": "0,0,1,0,2,0.5,0.0,2,0.25\n",
        "trailing_comma": "0,0,1,0,2,0.5,0.0,1,0.25,\n",
        "whitespace_line": GOOD.replace("\n", "\n   \n", 1),
        "underscore_in_int": "1_0,0,1,0,2,0.5,0.0,1,0.25\n",
        "crlf": GOOD.replace("\n", "\r\n"),
        "int_above_2_63": "9223372036854775808,0,1,0,2,0.5,0.0,1,0.25\n",
        "int_below_minus_2_63": "0,0,1,0,-9223372036854775809,0.5,0.0,1,0.25\n",
        "int64_max": "9223372036854775807,0,1,0,2,0.5,0.0,1,0.25\n",
        "header_only": "",
        # loadtxt strips these as whitespace; str.splitlines breaks lines.
        "form_feed_in_line": "0,0,1,0,2,0.5,0.0,1,\f0.25\n",
        "line_separator_in_line": "0,0,1,0,2,0.5,0.0,1,\u20280.25\n",
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_accepts_what_the_per_line_parser_accepts(self, name, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(("traj_id,t,x,a,x_next,c,g_1,done,behavior_prob\n"
                          + self.BODIES[name]).encode("utf-8"))
        got, expected = outcome(load, path), outcome(reference_load, path)
        assert got[0] == expected[0], (got, expected)
        if got[0] == "ok":
            assert_same_dataset(got[1], expected[1])
        else:
            assert got[1:] == expected[1:]

    @pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1])
    def test_integer_outside_int64_names_line(self, value, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("traj_id,t,x,a,x_next,c,g_1,done,behavior_prob\n"
                        "0,0,1,0,2,0.5,0.0,0,0.25\n"
                        f"0,1,{value},0,3,0.5,0.0,1,0.25\n")
        with pytest.raises(ValueError, match="line 3: integer field outside"):
            load(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,a\n0,1\n")
        with pytest.raises(ValueError, match="line 1"):
            load(path)


class TestFullCoverage:
    def test_one_sample_per_nonterminal_pair(self, fl8):
        data = full_coverage_dataset(fl8)
        nonterminal = 64 - len(fl8.terminal_states)
        assert len(data) == nonterminal * 4
        pairs = set(zip(data.x.tolist(), data.a.tolist()))
        assert len(pairs) == len(data)

    def test_done_marks_terminal_successors(self, fl8):
        data = full_coverage_dataset(fl8)
        assert np.array_equal(data.done, fl8.terminal_mask[data.x_next])


class TestCheckIndices:
    """Library entry points reject states and actions outside the sizes they
    work on (the 4x4 map: 16 states, 4 actions) instead of indexing with
    them; numpy would wrap a negative index to the last state."""

    @staticmethod
    def two_steps(a=1, x_next=-1):
        return Dataset([0, 0], [0, 1], [0, 4], [1, a], [4, x_next], [0.0, 0.0],
                       [[0.0], [0.0]], [False, True], [0.25, 0.25])

    def test_names_row_and_column(self):
        for data, message in [
                (self.two_steps(), "row 2 has x_next = -1, outside [0, 16)"),
                (self.two_steps(a=7, x_next=5),
                 "row 2 has a = 7, outside [0, 4)")]:
            with pytest.raises(ValueError) as info:
                check_indices(data, 16, 4)
            assert str(info.value) == message
        check_indices(self.two_steps(a=3, x_next=15), 16, 4)

    def test_ope_comparison(self):
        lake = build_frozenlake(FROZENLAKE_4X4)
        policy = DeterministicPolicy(np.ones(16, dtype=np.int64))
        with pytest.raises(ValueError, match="x_next = -1"):
            ope_comparison(self.two_steps(), policy, lake, [1.0], 1)

    def test_fqe(self):
        policy = DeterministicPolicy(np.ones(16, dtype=np.int64))
        with pytest.raises(ValueError, match="x_next = -1"):
            fqe(self.two_steps(), policy, CostSelector.primary(), 10,
                QFunction.tabular_zeros(16, 4), gamma=0.9)

    def test_pdis(self):
        policy = StochasticPolicy(np.full((16, 4), 0.25))
        with pytest.raises(ValueError, match="a = 7"):
            pdis(self.two_steps(a=7, x_next=5), policy, 0.9)

    def test_fqi(self):
        with pytest.raises(ValueError, match="a = 7"):
            fqi(self.two_steps(a=7, x_next=5), CostSelector.primary(), 10,
                QFunction.tabular_zeros(16, 4), gamma=0.9)
