import numpy as np
import pytest

from cbpl.mdp import (ACTION_EAST, ACTION_NORTH, ACTION_SOUTH,
                      FROZENLAKE_8X8, DeterministicPolicy, StochasticPolicy,
                      TabularMdp, as_stochastic, build_combination_lock,
                      build_frozenlake, build_random_mdp)
from cbpl.oracle import exact_policy_values, value_iteration

from conftest import mc_policy_values, one_state_mdp


class TestTransitionTables:
    def test_absorbing_state(self):
        mdp = one_state_mdp(terminal=True)
        assert mdp.transition[0, 0, 0] == 1.0
        assert mdp.cost_c[0, 0] == 0.0
        assert mdp.cost_g.shape == (1, 1, 0)
        assert mdp.terminal_mask[0]

    def test_entering_goal_costs_minus_one(self, fl8):
        goal = 63
        left_of_goal = 62
        assert fl8.transition[left_of_goal, ACTION_EAST, goal] == 1.0
        assert fl8.cost_c[left_of_goal, ACTION_EAST] == -1.0
        assert fl8.cost_g[left_of_goal, ACTION_EAST, 0] == 0.0
        assert fl8.terminal_mask[goal]

    def test_entering_hole_costs_one_constraint(self, fl8):
        hole = 19  # row 2, col 3
        above_hole = 11
        assert fl8.transition[above_hole, ACTION_SOUTH, hole] == 1.0
        assert fl8.cost_c[above_hole, ACTION_SOUTH] == 0.0
        assert fl8.cost_g[above_hole, ACTION_SOUTH, 0] == 1.0
        assert fl8.terminal_mask[hole]


class TestBuildFrozenlake:
    def test_8x8_shape(self, fl8):
        assert fl8.num_states == 64
        assert fl8.num_actions == 4
        assert fl8.m == 1
        assert fl8.gamma == 0.95

    def test_1x2_start_goal(self):
        mdp = build_frozenlake(("SG",))
        assert mdp.transition[0, ACTION_EAST, 1] == 1.0
        assert mdp.cost_c[0, ACTION_EAST] == -1.0
        assert mdp.terminal_mask.tolist() == [False, True]
        # Off the grid: moving north stays put at no cost.
        assert mdp.transition[0, ACTION_NORTH, 0] == 1.0
        assert mdp.cost_c[0, ACTION_NORTH] == 0.0

    def test_2x2_hand_enumeration(self):
        # Layout: S F / H G. States 0=S, 1=F, 2=H, 3=G; actions N,S,E,W.
        mdp = build_frozenlake(("SF", "HG"))
        expected_next = {  # (state, action) -> next state, off-grid stays put
            (0, 0): 0, (0, 1): 2, (0, 2): 1, (0, 3): 0,
            (1, 0): 1, (1, 1): 3, (1, 2): 1, (1, 3): 0,
        }
        for (x, a), nx in expected_next.items():
            row = np.zeros(4)
            row[nx] = 1.0
            assert np.array_equal(mdp.transition[x, a], row), (x, a)
        for x in (2, 3):  # hole and goal absorb
            for a in range(4):
                assert mdp.transition[x, a, x] == 1.0
        assert mdp.cost_c[1, 1] == -1.0  # F south into goal
        assert mdp.cost_g[0, 1, 0] == 1.0  # S south into hole
        assert np.sum(mdp.cost_c) == -1.0
        assert np.sum(mdp.cost_g) == 1.0

    def test_8x8_hole_entry_count_matches_enumeration(self, fl8):
        rows = FROZENLAKE_8X8
        holes = {r * 8 + c for r in range(8) for c in range(8)
                 if rows[r][c] == "H"}
        terminal = holes | {r * 8 + c for r in range(8) for c in range(8)
                            if rows[r][c] == "G"}
        moves = [(-1, 0), (1, 0), (0, 1), (0, -1)]
        expected = 0
        for r in range(8):
            for c in range(8):
                if r * 8 + c in terminal:
                    continue
                for dr, dc in moves:
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < 8 and 0 <= nc < 8 and nr * 8 + nc in holes:
                        expected += 1
        assert int(np.sum(fl8.cost_g == 1.0)) == expected

    def test_malformed_layouts_raise(self):
        for bad in (("SF", "GFF"), ("FFG",), ("SSG",), ("SFX",), ()):
            with pytest.raises(ValueError):
                build_frozenlake(bad)


class TestCombinationLock:
    def test_forward_forward_reaches_terminal_with_cost_minus_one(self):
        mdp = build_combination_lock(3)
        assert mdp.transition[0, 1, 1] == 1.0
        assert mdp.transition[1, 1, 2] == 1.0
        assert mdp.cost_c[0, 1] + mdp.cost_c[1, 1] == -1.0
        assert mdp.terminal_mask.tolist() == [False, False, True]

    def test_reset_action_returns_to_start(self):
        mdp = build_combination_lock(3)
        assert mdp.transition[1, 0, 0] == 1.0
        assert mdp.cost_c[1, 0] == 0.0

    def test_n5_optimal_value_is_gamma_cubed(self):
        mdp = build_combination_lock(5, gamma=0.9)
        q = value_iteration(mdp, mdp.cost_c)
        assert q.table[0].min() == pytest.approx(-0.9 ** 3, abs=1e-9)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            build_combination_lock(1)


class TestRandomMdp:
    def test_determinism(self):
        m1 = build_random_mdp(2, 2, 1, seed=7)
        m2 = build_random_mdp(2, 2, 1, seed=7)
        assert np.array_equal(m1.transition, m2.transition)
        assert np.array_equal(m1.cost_c, m2.cost_c)
        assert np.array_equal(m1.cost_g, m2.cost_g)

    def test_rows_sum_to_one(self):
        for seed in range(5):
            mdp = build_random_mdp(6, 3, 2, seed=seed)
            assert np.max(np.abs(mdp.transition.sum(axis=2) - 1.0)) <= 1e-12

    def test_uniform_policy_matches_monte_carlo(self):
        mdp = build_random_mdp(5, 3, 2, seed=1)
        uniform = StochasticPolicy(np.full((5, 3), 1.0 / 3))
        c_exact, g_exact = exact_policy_values(mdp, uniform)
        rng = np.random.default_rng(12345)
        num = 20_000
        c_mc, g_mc = mc_policy_values(mdp, uniform.probs, num, 200, rng)
        for exact, samples in [(c_exact, c_mc)] + [
                (g_exact[i], g_mc[:, i]) for i in range(2)]:
            sigma = samples.std(ddof=1) / np.sqrt(num)
            assert abs(samples.mean() - exact) <= 3 * sigma + 1e-12

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            build_random_mdp(0, 2, 1, seed=0)


class TestMdpValidation:
    def test_bad_transition_rows_rejected(self):
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 0] = 0.5  # row sums to 0.5
        transition[1, 0, 1] = 1.0
        with pytest.raises(ValueError):
            TabularMdp(transition, np.zeros((2, 1)), np.zeros((2, 1, 0)),
                       0.9, np.array([1.0, 0.0]))

    # The first row sums to 1 (or to NaN, which passes the sum check), but
    # its cumulative row is not monotone.
    @pytest.mark.parametrize("row", [[1.5, -0.5], [np.nan, 1.0]],
                             ids=["negative", "nan"])
    def test_negative_transition_entry_rejected(self, row):
        transition = np.array([[row], [[0.0, 1.0]]])
        with pytest.raises(ValueError, match="must be nonnegative"):
            TabularMdp(transition, np.zeros((2, 1)), np.zeros((2, 1, 0)),
                       0.9, np.array([1.0, 0.0]))

    def test_nonabsorbing_terminal_rejected(self):
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 1] = 1.0
        transition[1, 0, 0] = 1.0
        with pytest.raises(ValueError):
            TabularMdp(transition, np.zeros((2, 1)), np.zeros((2, 1, 0)),
                       0.9, np.array([1.0, 0.0]), terminal_states={1})

    def test_costly_terminal_rejected(self):
        transition = np.ones((1, 1, 1))
        with pytest.raises(ValueError):
            TabularMdp(transition, np.array([[1.0]]), np.zeros((1, 1, 0)),
                       0.9, np.ones(1), terminal_states={0})

    def test_negative_constraint_cost_rejected(self):
        transition = np.ones((1, 1, 1))
        with pytest.raises(ValueError):
            TabularMdp(transition, np.zeros((1, 1)), np.full((1, 1, 1), -0.5),
                       0.9, np.ones(1))


class TestPolicies:
    def test_as_stochastic_round_trip(self):
        det = DeterministicPolicy([1, 0, 2])
        probs = as_stochastic(det, 3)
        assert np.array_equal(probs.argmax(axis=1), det.actions)
        assert np.array_equal(probs.sum(axis=1), np.ones(3))

    def test_bad_stochastic_rows_rejected(self):
        with pytest.raises(ValueError):
            StochasticPolicy([[0.5, 0.4]])
