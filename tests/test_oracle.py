import numpy as np
import pytest

from cbpl.batchrl import EmpiricalModel
from cbpl.dataset import full_coverage_dataset
from cbpl.learner import ConvergenceError
from cbpl.mdp import (DeterministicPolicy, StochasticPolicy, TabularMdp,
                      build_combination_lock, build_frozenlake,
                      build_random_mdp)
from cbpl.ope import ope_comparison
from cbpl.oracle import (ExactSolver, exact_constrained_optimum,
                         exact_policy_values, occupancy,
                         performance_difference_check, value_iteration)

from conftest import mc_policy_values, one_state_mdp, two_state_chain


def two_action_bandit():
    """One decision state, both actions terminate.

    Action 0: c = 0, g = 0. Action 1: c = -1, g = 1. With tau = 0.5 the
    constrained optimum is the 50/50 mixture with C* = -0.5 (hand-solvable
    linear program over occupancy measures).
    """
    transition = np.zeros((2, 2, 2))
    transition[0, :, 1] = 1.0
    transition[1, :, 1] = 1.0
    cost_c = np.array([[0.0, -1.0], [0.0, 0.0]])
    cost_g = np.zeros((2, 2, 1))
    cost_g[0, 1, 0] = 1.0
    return TabularMdp(transition, cost_c, cost_g, 0.9, np.array([1.0, 0.0]),
                      terminal_states={1})


class TestExactPolicyValues:
    def test_absorbing_zero_cost(self):
        mdp = one_state_mdp(terminal=True)
        c, g = exact_policy_values(mdp, DeterministicPolicy([0]))
        assert c == 0.0 and g.shape == (0,)

    def test_two_state_chain_geometric(self):
        mdp = two_state_chain(gamma=0.5)
        c, _ = exact_policy_values(mdp, DeterministicPolicy([0, 0]))
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_frozenlake_uniform_matches_monte_carlo(self, fl8):
        from cbpl.dataset import make_frozenlake_behavior
        uniform = make_frozenlake_behavior(fl8, 1.0)
        c_exact, g_exact = exact_policy_values(fl8, uniform)
        num = 400_000
        c_mc, g_mc = mc_policy_values(fl8, uniform.probs, num, 400,
                                      np.random.default_rng(7))
        for exact, samples in ((c_exact, c_mc), (g_exact[0], g_mc[:, 0])):
            sigma = samples.std(ddof=1) / np.sqrt(num)
            assert abs(samples.mean() - exact) <= 3 * sigma

    def test_mixture_values_are_weighted_averages(self, fl8):
        from cbpl.learner import MixturePolicy
        p0 = DeterministicPolicy(np.zeros(64, dtype=np.int64))
        p1 = DeterministicPolicy(np.full(64, 2, dtype=np.int64))
        mix = MixturePolicy([p0, p1], [1, 3], [0.0, 0.0],
                            [np.zeros(1), np.zeros(1)])
        c0, g0 = exact_policy_values(fl8, p0)
        c1, g1 = exact_policy_values(fl8, p1)
        c_mix, g_mix = exact_policy_values(fl8, mix)
        assert c_mix == pytest.approx(0.25 * c0 + 0.75 * c1, abs=1e-12)
        assert g_mix[0] == pytest.approx(0.25 * g0[0] + 0.75 * g1[0], abs=1e-12)


    @pytest.mark.parametrize("shape", [(64, 3), (60, 4)])
    @pytest.mark.parametrize("caller", ["exact_policy_values", "occupancy",
                                        "ope_comparison"])
    def test_stochastic_table_off_the_map_raises(self, caller, shape, fl8):
        policy = StochasticPolicy(np.full(shape, 1.0 / shape[1]))
        call = {
            "exact_policy_values": lambda: exact_policy_values(fl8, policy),
            "occupancy": lambda: occupancy(fl8, policy),
            "ope_comparison": lambda: ope_comparison(
                full_coverage_dataset(fl8), policy, fl8, [1.0], 1),
        }[caller]
        with pytest.raises(ValueError, match=rf"policy table has shape "
                           rf"\({shape[0]}, {shape[1]}\), expected \(64, 4\)"):
            call()


class TestOccupancy:
    def test_sums_to_one(self, fl8):
        policy = DeterministicPolicy(np.full(64, 2, dtype=np.int64))
        d = occupancy(fl8, policy)
        assert d.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_power_series(self):
        mdp = build_random_mdp(4, 2, 0, seed=11)
        policy = DeterministicPolicy([0, 1, 0, 1])
        d = occupancy(mdp, policy)
        p_pi = mdp.transition[np.arange(4), policy.actions]
        direct = (1 - mdp.gamma) * mdp.initial_dist @ np.linalg.inv(
            np.eye(4) - mdp.gamma * p_pi)
        assert np.allclose(d, direct, atol=1e-10)


class TestValueIteration:
    def test_zero_costs_give_zero_q(self, fl8):
        q = value_iteration(fl8, np.zeros((64, 4)))
        assert np.all(q.table == 0.0)

    def test_combination_lock_start_value(self):
        mdp = build_combination_lock(5, gamma=0.9)
        q = value_iteration(mdp, mdp.cost_c)
        assert q.table[0].min() == pytest.approx(-0.9 ** 3, abs=1e-9)

    def test_bellman_residual_below_tolerance(self, fl8):
        for mdp in (fl8, build_combination_lock(4), build_random_mdp(6, 3, 1, 2)):
            q = value_iteration(mdp, mdp.cost_c, tol=1e-10)
            S, A = mdp.num_states, mdp.num_actions
            v = q.table.min(axis=1)
            backup = mdp.cost_c + mdp.gamma * (
                mdp.transition.reshape(S * A, S) @ v).reshape(S, A)
            assert np.max(np.abs(backup - q.table)) <= 1e-10

    def test_greedy_reaches_goal_on_shortest_safe_path(self, fl8):
        import collections
        q = value_iteration(fl8, fl8.cost_c)
        policy = np.argmin(q.table, axis=1)
        # Independent BFS distance from start to goal avoiding holes.
        holes, goals = fl8.metadata["holes"], fl8.metadata["goals"]
        next_state = np.argmax(fl8.transition, axis=2)
        dist = {fl8.metadata["start"]: 0}
        queue = collections.deque([fl8.metadata["start"]])
        while queue:
            x = queue.popleft()
            for a in range(4):
                nx = int(next_state[x, a])
                if nx not in dist and nx not in holes:
                    dist[nx] = dist[x] + 1
                    queue.append(nx)
        d_star = min(dist[g] for g in goals if g in dist)
        x = fl8.metadata["start"]
        for steps in range(1, d_star + 1):
            x = int(next_state[x, policy[x]])
            assert x not in holes
        assert x in goals

    def test_greedy_matches_optimal_value(self, fl8):
        q = value_iteration(fl8, fl8.cost_c)
        greedy = DeterministicPolicy(np.argmin(q.table, axis=1))
        c, _ = exact_policy_values(fl8, greedy)
        assert c == pytest.approx(float(fl8.initial_dist @ q.table.min(axis=1)),
                                  abs=1e-8)

    def test_bad_tolerance_raises(self, fl8):
        with pytest.raises(ValueError):
            value_iteration(fl8, fl8.cost_c, tol=0.0)


class TestExactBestResponse:
    def test_zero_multiplier_is_unconstrained_optimum(self, fl8):
        policy = ExactSolver(fl8).best_response(np.zeros(1))
        q = value_iteration(fl8, fl8.cost_c)
        c, _ = exact_policy_values(fl8, policy)
        assert c == pytest.approx(float(fl8.initial_dist @ q.table.min(axis=1)),
                                  abs=1e-9)

    def test_huge_multiplier_never_enters_a_hole(self, fl8):
        policy = ExactSolver(fl8).best_response(np.array([1e6]))
        _, g = exact_policy_values(fl8, policy)
        assert g[0] == pytest.approx(0.0, abs=1e-12)

    def test_vacuous_constraint_channel_ignores_multiplier(self):
        mdp = build_random_mdp(5, 3, 0, seed=4)
        zero_g = TabularMdp(mdp.transition, mdp.cost_c,
                            np.zeros((5, 3, 1)), mdp.gamma, mdp.initial_dist)
        p0 = ExactSolver(zero_g).best_response(np.zeros(1))
        p1 = ExactSolver(zero_g).best_response(np.array([123.0]))
        assert np.array_equal(p0.actions, p1.actions)

    def test_solver_matches_value_iteration_scalarization(self, fl8):
        lam = np.array([2.5])
        policy = ExactSolver(fl8).best_response(lam)
        scalarized = fl8.cost_c + fl8.cost_g[:, :, 0] * lam[0]
        q = value_iteration(fl8, scalarized)
        c_vi = float(fl8.initial_dist @ q.table.min(axis=1))
        solver = ExactSolver(fl8)
        q_pol = solver.scalarized_q(policy.actions, lam)
        idx = np.arange(64)
        c_pol = float(fl8.initial_dist @ q_pol[idx, policy.actions])
        assert c_pol == pytest.approx(c_vi, abs=1e-8)

    def test_warm_start_does_not_change_answer(self, fl8):
        # The learner reuses one solver across rounds; each answer must be
        # the one a fresh solver gives for that multiplier.
        solver = ExactSolver(fl8)
        for lam in [0.0, 2.5, 1e6, 0.3, 30.0, 0.0]:
            warm = solver.best_response(np.array([lam]))
            cold = ExactSolver(fl8).best_response(np.array([lam]))
            assert np.array_equal(warm.actions, cold.actions)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 30.0])
    def test_roundoff_tie_goes_to_lowest_action(self, fl8, lam):
        # At states 32 and 33 actions 0 and 2 tie; summation roundoff makes
        # Q(x, 0) exceed Q(x, 2) by about 1e-16.
        policy = ExactSolver(fl8).best_response(np.array([lam]))
        assert policy.actions[32] == 0 and policy.actions[33] == 0


class TestExactConstrainedOptimum:
    def test_slack_constraint_returns_unconstrained_optimum(self, fl8):
        c_star, mixture = exact_constrained_optimum(fl8, [10.0], B=5.0,
                                                    eta=1.0, omega=0.01)
        q = value_iteration(fl8, fl8.cost_c)
        unconstrained = float(fl8.initial_dist @ q.table.min(axis=1))
        assert c_star <= unconstrained + 0.01 + 1e-9
        assert c_star >= unconstrained - 1e-9

    def test_frozenlake_mixture_nearly_feasible(self, fl8):
        tau = 0.1
        omega = 0.05
        B = 30.0
        c_star, mixture = exact_constrained_optimum(fl8, [tau], B=B, eta=50.0,
                                                    omega=omega)
        _, g = exact_policy_values(fl8, mixture)
        v_bar = 1.0 / (1.0 - fl8.gamma)
        assert g[0] <= tau + 2 * (v_bar + omega) / B

    def test_bandit_matches_hand_lp(self):
        mdp = two_action_bandit()
        c_star, mixture = exact_constrained_optimum(mdp, [0.5], B=10.0,
                                                    eta=1.0, omega=0.01,
                                                    max_rounds=10_000)
        assert c_star == pytest.approx(-0.5, abs=0.05)
        _, g = exact_policy_values(mdp, mixture)
        assert g[0] <= 0.5 + 2 * (1.0 / (1 - mdp.gamma) + 0.01) / 10.0

    def test_seed1_empirical_mdp_returns_one_member(self, fl8, fl8_dataset):
        empirical = EmpiricalModel.from_dataset(fl8_dataset).to_mdp(
            64, 4, fl8.gamma, fl8.initial_dist)
        _, mixture = exact_constrained_optimum(empirical, [0.1], B=30.0,
                                               eta=50.0, omega=0.05)
        assert len(mixture.members) == 1

    def test_round_cap_raises_convergence_error(self, fl8):
        with pytest.raises(ConvergenceError) as excinfo:
            exact_constrained_optimum(fl8, [0.1], B=30.0, eta=50.0,
                                      omega=1e-6, max_rounds=3)
        assert excinfo.value.mixture is not None
        assert excinfo.value.trace is not None
        assert not excinfo.value.trace.converged


class TestPerformanceDifference:
    def test_optimal_policy_residual_zero(self, fl8):
        solver = ExactSolver(fl8)
        pi_star = solver.best_response(np.zeros(1))
        assert performance_difference_check(fl8, pi_star) <= 1e-9

    def test_random_policy_on_random_mdp(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            mdp = build_random_mdp(4, 2, 0, seed=seed)
            policy = DeterministicPolicy(rng.integers(0, 2, 4))
            assert performance_difference_check(mdp, policy) <= 1e-8

    def test_uniform_policy_on_combination_lock(self):
        mdp = build_combination_lock(3)
        uniform = StochasticPolicy(np.full((3, 2), 0.5))
        assert performance_difference_check(mdp, uniform) <= 1e-8
