import numpy as np
import pytest

from cbpl.batchrl import (CostSelector, EmpiricalModel, fqe, fqi, lspi,
                          lspi_policy, lstdq, lstdq_policy)
from cbpl.dataset import (Dataset, collect, draw_trajectories,
                          full_coverage_dataset, make_frozenlake_behavior)
from cbpl.funcapprox import (FeatureMap, QFunction, fit_least_squares,
                             one_hot_features)
from cbpl.mdp import (DeterministicPolicy, StochasticPolicy,
                      build_combination_lock, build_frozenlake)
from cbpl.oracle import ExactSolver, exact_policy_values, value_iteration

from conftest import FROZENLAKE_4X4, one_state_mdp, two_state_chain


def template_for(mdp):
    return QFunction.tabular_zeros(mdp.num_states, mdp.num_actions)


def exact_policy_q(mdp, policy):
    """Ground-truth Q^pi on the primary channel."""
    return ExactSolver(mdp).policy_channel_q(policy.actions)[:, :, 0]


def duplicate_dataset(data):
    shift = data.traj_id.max() + 1
    cat = lambda a, b: np.concatenate([a, b])
    return Dataset(cat(data.traj_id, data.traj_id + shift), cat(data.t, data.t),
                   cat(data.x, data.x), cat(data.a, data.a),
                   cat(data.x_next, data.x_next), cat(data.c, data.c),
                   np.concatenate([data.g, data.g], axis=0),
                   cat(data.done, data.done),
                   cat(data.behavior_prob, data.behavior_prob))


class TestCostSelector:
    def test_modes(self, fl8_dataset):
        assert np.array_equal(CostSelector.primary().select(fl8_dataset),
                              fl8_dataset.c)
        assert np.array_equal(CostSelector.constraint(0).select(fl8_dataset),
                              fl8_dataset.g[:, 0])
        lam = np.array([2.0])
        combo = CostSelector.scalarized(lam).select(fl8_dataset)
        assert np.allclose(combo, fl8_dataset.c + 2.0 * fl8_dataset.g[:, 0])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            CostSelector("nonsense")
        with pytest.raises(ValueError):
            CostSelector.scalarized([-1.0])


class TestFqe:
    def test_two_state_chain_geometric_value(self):
        mdp = two_state_chain(gamma=0.5)
        data = full_coverage_dataset(mdp)
        policy = DeterministicPolicy([0, 0])
        est, run = fqe(data, policy, CostSelector.primary(), 2,
                       template_for(mdp), mdp=mdp)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert run.K == 2 and len(run.per_iteration_bellman_residuals) == 2

    def test_zero_costs_give_zero_estimate(self):
        mdp = build_combination_lock(4)
        data = full_coverage_dataset(mdp)
        zeroed = Dataset(data.traj_id, data.t, data.x, data.a, data.x_next,
                         np.zeros(len(data)), data.g, data.done,
                         data.behavior_prob)
        policy = DeterministicPolicy([1, 1, 1, 1])
        for K in (1, 7):
            est, _ = fqe(zeroed, policy, CostSelector.primary(), K,
                         template_for(mdp), mdp=mdp)
            assert est == 0.0

    def test_frozenlake_optimal_policy_close_to_exact(self, fl8):
        policy = ExactSolver(fl8).best_response(np.array([1e6]))
        data = full_coverage_dataset(fl8)
        est, _ = fqe(data, policy, CostSelector.primary(), 100,
                     template_for(fl8), mdp=fl8)
        exact_c, _ = exact_policy_values(fl8, policy)
        assert abs(est - exact_c) <= 0.01

    @pytest.mark.parametrize("K", [1, 5, 20])
    def test_contraction_toward_exact_q(self, K):
        for mdp in (build_frozenlake(FROZENLAKE_4X4),
                    build_combination_lock(5)):
            policy = DeterministicPolicy(
                np.argmin(value_iteration(mdp, mdp.cost_c).table, axis=1))
            q_pi = exact_policy_q(mdp, policy)
            data = full_coverage_dataset(mdp)
            _, run = fqe(data, policy, CostSelector.primary(), K,
                         template_for(mdp), mdp=mdp)
            err = np.abs(run.q_final.values() - q_pi).max()
            initial = np.abs(q_pi).max()  # Q_0 = 0
            assert err <= mdp.gamma ** K * initial + 1e-10

    def test_invariant_under_sample_duplication(self, fl8):
        policy = DeterministicPolicy(np.full(64, 2, dtype=np.int64))
        data = full_coverage_dataset(fl8)
        est1, _ = fqe(data, policy, CostSelector.primary(), 30,
                      template_for(fl8), mdp=fl8)
        est2, _ = fqe(duplicate_dataset(data), policy, CostSelector.primary(),
                      30, template_for(fl8), mdp=fl8)
        assert est1 == pytest.approx(est2, abs=1e-12)

    def test_empirical_initial_distribution_fallback(self):
        mdp = two_state_chain(gamma=0.5)
        data = full_coverage_dataset(mdp)
        policy = DeterministicPolicy([0, 0])
        est, _ = fqe(data, policy, CostSelector.primary(), 2,
                     template_for(mdp), gamma=0.5)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_iteration_count(self, fl8_dataset, fl8):
        policy = DeterministicPolicy(np.zeros(64, dtype=np.int64))
        with pytest.raises(ValueError):
            fqe(fl8_dataset, policy, CostSelector.primary(), 0,
                template_for(fl8), mdp=fl8)


class TestDiscountRule:
    """fqe and fqi discount by the map's gamma, which a given gamma must
    equal; without a map gamma must be given."""

    @pytest.mark.parametrize("kw, message", [
        (dict(gamma=0.9), "differs from the map's 0.5"),
        (dict(mdp=None), "provide gamma")])
    def test_rejected_discounts(self, kw, message):
        mdp = two_state_chain(gamma=0.5)
        data = full_coverage_dataset(mdp)
        kw = dict(dict(mdp=mdp), **kw)
        with pytest.raises(ValueError, match=message):
            fqe(data, DeterministicPolicy([0, 0]), CostSelector.primary(), 2,
                template_for(mdp), **kw)
        with pytest.raises(ValueError, match=message):
            fqi(data, CostSelector.primary(), 2, template_for(mdp), **kw)


class TestFqi:
    def test_combination_lock_learns_forward_action(self):
        mdp = build_combination_lock(3, gamma=0.9)
        data = full_coverage_dataset(mdp)
        policy, _ = fqi(data, CostSelector.primary(), 10, template_for(mdp),
                        mdp=mdp)
        assert np.array_equal(policy.actions[:2], [1, 1])

    def test_zero_costs_tie_break_to_action_zero(self):
        mdp = build_combination_lock(4)
        data = full_coverage_dataset(mdp)
        zeroed = Dataset(data.traj_id, data.t, data.x, data.a, data.x_next,
                         np.zeros(len(data)), data.g, data.done,
                         data.behavior_prob)
        policy, _ = fqi(zeroed, CostSelector.primary(), 5, template_for(mdp),
                        mdp=mdp)
        assert np.all(policy.actions == 0)

    def test_frozenlake_q_matches_optimal_q(self, fl8):
        data = full_coverage_dataset(fl8)
        _, run = fqi(data, CostSelector.primary(), 100, template_for(fl8),
                     mdp=fl8)
        q_star = value_iteration(fl8, fl8.cost_c, tol=1e-13).table
        bound = fl8.gamma ** 100 * 2 * 1.0 / (1 - fl8.gamma)
        assert np.abs(run.q_final.values() - q_star).max() <= bound + 0.01

    @pytest.mark.parametrize("K", [1, 5, 20])
    def test_contraction_toward_q_star(self, K):
        for mdp in (build_frozenlake(FROZENLAKE_4X4),
                    build_combination_lock(5)):
            q_star = value_iteration(mdp, mdp.cost_c, tol=1e-13).table
            data = full_coverage_dataset(mdp)
            _, run = fqi(data, CostSelector.primary(), K, template_for(mdp),
                         mdp=mdp)
            err = np.abs(run.q_final.values() - q_star).max()
            assert err <= mdp.gamma ** K * np.abs(q_star).max() + 1e-10


class TestLstdq:
    def test_self_loop_fixed_point(self):
        mdp = one_state_mdp(terminal=False, cost=1.0, gamma=0.5)
        data = full_coverage_dataset(mdp)
        feats = one_hot_features(mdp)
        w = lstdq(data, np.zeros(1), CostSelector.primary(), feats, 0.5,
                  ridge=0.0)
        assert w[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_costs_give_zero_weights(self, fl8):
        data = full_coverage_dataset(fl8)
        zeroed = Dataset(data.traj_id, data.t, data.x, data.a, data.x_next,
                         np.zeros(len(data)), data.g, data.done,
                         data.behavior_prob)
        feats = one_hot_features(fl8)
        w = lstdq(zeroed, np.zeros(feats.k), CostSelector.primary(), feats,
                  fl8.gamma)
        assert np.abs(w).max() <= 1e-9

    def test_one_hot_equals_exact_evaluation_of_greedy_policy(self):
        # One LSTDQ solve returns Q of the policy that is greedy under the
        # input weights, evaluated on the empirical model; with deterministic
        # full-coverage data the empirical model is the true model.
        mdp = build_frozenlake(FROZENLAKE_4X4)
        data = full_coverage_dataset(mdp)
        feats = one_hot_features(mdp)
        rng = np.random.default_rng(3)
        w_in = rng.normal(size=feats.k)
        pi_in = lspi_policy(w_in, feats)
        w_out = lstdq(data, w_in, CostSelector.primary(), feats, mdp.gamma,
                      ridge=1e-10)
        q_exact = exact_policy_q(mdp, pi_in)
        q_out = w_out.reshape(mdp.num_states, mdp.num_actions)
        assert np.abs(q_out - q_exact).max() <= 1e-8

    def test_policy_evaluation_form_matches_exact(self):
        mdp = build_frozenlake(FROZENLAKE_4X4)
        data = full_coverage_dataset(mdp)
        feats = one_hot_features(mdp)
        policy = DeterministicPolicy(
            np.argmin(value_iteration(mdp, mdp.cost_c).table, axis=1))
        w = lstdq_policy(data, policy, CostSelector.primary(), feats,
                         mdp.gamma, ridge=1e-10)
        q_exact = exact_policy_q(mdp, policy)
        assert np.abs(w.reshape(mdp.num_states, mdp.num_actions)
                      - q_exact).max() <= 1e-8

    def test_count_weighted_rows_equal_the_per_sample_system(self):
        # Sampled data repeats rows and ends trajectories in holes; random
        # features make the template linear but not tabular.
        mdp = build_frozenlake(FROZENLAKE_4X4)
        data = collect(mdp, make_frozenlake_behavior(mdp, 0.5), 200, 30,
                       np.random.default_rng(5))
        assert len(EmpiricalModel.from_dataset(data)) < len(data)
        assert data.done.any()
        feats = FeatureMap(np.random.default_rng(6).normal(size=(16, 4, 5)))
        w_in = np.random.default_rng(7).normal(size=feats.k)
        cost, gamma, ridge = CostSelector.constraint(0), 0.9, 1e-3
        nxt = lspi_policy(w_in, feats).actions[data.x_next]
        phi = feats.phi[data.x, data.a]
        phi_next = np.where(data.done[:, None], 0.0,
                            feats.phi[data.x_next, nxt])
        expect = np.linalg.solve(
            phi.T @ (phi - gamma * phi_next) + ridge * np.eye(feats.k),
            phi.T @ cost.select(data))
        w = lstdq(data, w_in, cost, feats, gamma, ridge=ridge)
        assert np.allclose(w, expect, rtol=1e-9, atol=1e-12)
        assert np.array_equal(
            w, lstdq(EmpiricalModel.from_dataset(data), w_in, cost, feats,
                     gamma, ridge=ridge))

    def test_weight_length_mismatch_raises(self, fl8):
        data = full_coverage_dataset(fl8)
        feats = one_hot_features(fl8)
        with pytest.raises(ValueError, match="weight length"):
            lstdq(data, np.zeros(3), CostSelector.primary(), feats, fl8.gamma)


class TestLspi:
    def test_zero_costs_converges_immediately(self, fl8):
        data = full_coverage_dataset(fl8)
        zeroed = Dataset(data.traj_id, data.t, data.x, data.a, data.x_next,
                         np.zeros(len(data)), data.g, data.done,
                         data.behavior_prob)
        feats = one_hot_features(fl8)
        result = lspi(zeroed, CostSelector.primary(), feats, fl8.gamma)
        assert result.converged and result.iterations == 1
        assert np.abs(result.weights).max() <= 1e-9

    def test_self_loop_converges_to_fixed_point(self):
        mdp = one_state_mdp(terminal=False, cost=1.0, gamma=0.5)
        data = full_coverage_dataset(mdp)
        feats = one_hot_features(mdp)
        result = lspi(data, CostSelector.primary(), feats, 0.5, ridge=0.0)
        assert result.converged and result.iterations <= 2
        assert result.weights[0] == pytest.approx(2.0, abs=1e-12)

    def test_frozenlake_matches_value_iteration_policy(self, fl8):
        data = full_coverage_dataset(fl8)
        feats = one_hot_features(fl8)
        result = lspi(data, CostSelector.primary(), feats, fl8.gamma)
        assert result.converged
        policy = lspi_policy(result.weights, feats)
        vi_policy = np.argmin(value_iteration(fl8, fl8.cost_c, tol=1e-13).table,
                              axis=1)
        assert np.array_equal(policy.actions, vi_policy)

    def test_iteration_cap_sets_nonconvergence_flag(self, fl8):
        data = full_coverage_dataset(fl8)
        feats = one_hot_features(fl8)
        result = lspi(data, CostSelector.primary(), feats, fl8.gamma,
                      max_iters=1)
        assert not result.converged and result.iterations == 1

    def test_bad_stopping_tolerance_raises(self, fl8):
        data = full_coverage_dataset(fl8)
        feats = one_hot_features(fl8)
        with pytest.raises(ValueError):
            lspi(data, CostSelector.primary(), feats, fl8.gamma, eps_stop=0.0)

    # A NaN ridge used to give all-zero weights, and a NaN eps_stop a run
    # that never converged.
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["ridge", "eps_stop"])
    def test_non_finite_numbers_raise(self, fl8, arg, value):
        data = full_coverage_dataset(fl8)
        feats = one_hot_features(fl8)
        with pytest.raises(ValueError, match="finite"):
            lspi(data, CostSelector.primary(), feats, fl8.gamma,
                 **{arg: value})
        if arg == "ridge":
            with pytest.raises(ValueError, match="finite"):
                lstdq(data, np.zeros(feats.k), CostSelector.primary(), feats,
                      fl8.gamma, ridge=value)


def per_sample_sweeps(data, cost, K, template, gamma, bootstrap):
    """FQE/FQI as one regression over every sample per sweep, the way they
    ran before the deduplicated table: bootstrap(values, x_next) gathers the
    successor values sample by sample. Returns (Q_K, residuals)."""
    costs = cost.select(data)
    q = template
    residuals = []
    for _ in range(K):
        y = costs + gamma * np.where(data.done, 0.0,
                                     bootstrap(q.values(), data.x_next))
        q = fit_least_squares((data.x, data.a), y, template)
        err = q.values()[data.x, data.a] - y
        residuals.append(float(np.sqrt(np.mean(err ** 2))))
    return q, residuals


def random_chain_dataset(num_states, num_actions, m, num_traj, seed):
    """Trajectories of random (x, a, x') chains with continuous random costs,
    so no two rows coincide and the model does not compress them."""
    rng = np.random.default_rng(seed)
    cols = {k: [] for k in ("traj_id", "t", "x", "a", "x_next", "done")}
    for tid in range(num_traj):
        length = int(rng.integers(1, 8))
        states = rng.integers(0, num_states, size=length + 1)
        cols["traj_id"] += [tid] * length
        cols["t"] += list(range(length))
        cols["x"] += list(states[:-1])
        cols["a"] += list(rng.integers(0, num_actions, size=length))
        cols["x_next"] += list(states[1:])
        cols["done"] += [False] * (length - 1) + [bool(rng.random() < 0.5)]
    n = len(cols["x"])
    return Dataset(cols["traj_id"], cols["t"], cols["x"], cols["a"],
                   cols["x_next"], rng.normal(size=n),
                   rng.uniform(size=(n, m)), cols["done"],
                   np.full(n, 1.0 / num_actions))


def templates(num_states, num_actions):
    rng = np.random.default_rng(5)
    feats = FeatureMap(rng.uniform(size=(num_states, num_actions, 6)))
    return {"tabular": QFunction.tabular_zeros(num_states, num_actions),
            "linear": QFunction(weights=np.zeros(feats.k), features=feats)}


def shuffled_trajectories(data, seed):
    order = np.random.default_rng(seed).permutation(data.num_trajectories)
    starts, stops = data.trajectory_bounds()
    sel = np.concatenate([np.arange(starts[i], stops[i]) for i in order])
    return Dataset(data.traj_id[sel], data.t[sel], data.x[sel], data.a[sel],
                   data.x_next[sel], data.c[sel], data.g[sel], data.done[sel],
                   data.behavior_prob[sel])


class TestEmpiricalModel:
    def test_counts_cover_every_sample_once(self, fl8_dataset):
        model = EmpiricalModel.from_dataset(fl8_dataset)
        assert model.count.sum() == len(fl8_dataset)
        assert len(model) < 300 < len(fl8_dataset)
        rows = set(zip(model.x, model.a, model.x_next, model.done, model.c,
                       map(tuple, model.g)))
        assert len(rows) == len(model)
        assert np.array_equal(np.sort(model.starts),
                              np.sort(fl8_dataset.x[fl8_dataset.t == 0]))

    def test_distinct_rows_stay_distinct(self):
        data = random_chain_dataset(6, 3, 2, 100, seed=1)
        model = EmpiricalModel.from_dataset(data)
        assert len(model) == len(data) and np.all(model.count == 1)

    def test_invariant_under_trajectory_order(self, fl8_dataset):
        a = EmpiricalModel.from_dataset(fl8_dataset)
        b = EmpiricalModel.from_dataset(shuffled_trajectories(fl8_dataset, 0))
        for col in ("x", "a", "x_next", "done", "c", "g", "count"):
            assert np.array_equal(getattr(a, col), getattr(b, col))


class TestEmpiricalMdp:
    """EmpiricalModel.to_mdp: the certainty-equivalence MDP plus a sink."""

    @staticmethod
    def hand_dataset():
        # (x, a) = (0, 0): once to state 1, twice done; (1, 1): once to 0.
        # State 2 and the pairs (0, 1), (1, 0) are never visited.
        rows = [(0, 0, 0, 0, 1, 1.0, 0.0, False),
                (0, 1, 1, 1, 0, 0.5, 1.0, False),
                (0, 2, 0, 0, 1, 3.0, 0.0, True),
                (1, 0, 0, 0, 1, 2.0, 0.5, True)]
        cols = list(zip(*rows))
        return Dataset(cols[0], cols[1], cols[2], cols[3], cols[4], cols[5],
                       np.array(cols[6])[:, None], cols[7], np.full(4, 0.5))

    def test_hand_built_model(self):
        mdp = EmpiricalModel.from_dataset(self.hand_dataset()).to_mdp(3, 2, 0.9)
        sink = 3
        assert mdp.num_states == 4 and mdp.gamma == 0.9
        assert np.allclose(mdp.transition[0, 0], [0, 1 / 3, 0, 2 / 3])
        assert np.array_equal(mdp.transition[1, 1], [1, 0, 0, 0])
        assert mdp.cost_c[0, 0] == 2.0 and mdp.cost_g[0, 0, 0] == 0.5 / 3
        assert mdp.cost_c[1, 1] == 0.5 and mdp.cost_g[1, 1, 0] == 1.0
        # Unvisited pairs and every action of the sink go to the sink at no
        # cost; the sink has no start mass.
        for x, a in [(0, 1), (1, 0), (2, 0), (2, 1), (sink, 0), (sink, 1)]:
            assert mdp.transition[x, a, sink] == 1.0
            assert mdp.cost_c[x, a] == 0.0 and np.all(mdp.cost_g[x, a] == 0)
        assert mdp.terminal_states == {sink}
        assert np.array_equal(mdp.initial_dist, [1, 0, 0, 0])
        given = EmpiricalModel.from_dataset(self.hand_dataset()).to_mdp(
            3, 2, 0.9, initial_dist=[0, 0.5, 0.5])
        assert np.array_equal(given.initial_dist, [0, 0.5, 0.5, 0])

    def test_rows_stochastic_and_sink_absorbing(self, fl8_dataset, fl8):
        model = EmpiricalModel.from_dataset(fl8_dataset)
        mdp = model.to_mdp(64, 4, fl8.gamma, fl8.initial_dist)
        assert np.abs(mdp.transition.sum(axis=2) - 1.0).max() <= 1e-12
        assert np.all(mdp.transition[64, :, 64] == 1.0)
        assert np.all(mdp.cost_c[64] == 0) and np.all(mdp.cost_g[64] == 0)
        assert np.array_equal(mdp.initial_dist, np.append(fl8.initial_dist, 0))
        visited = np.zeros((64, 4), dtype=bool)
        visited[model.x, model.a] = True
        assert np.all(mdp.transition[:64][~visited][:, 64] == 1.0)
        # Done samples (entering a hole or the goal) move to the sink, never
        # to the terminal state itself.
        assert np.all(mdp.transition[:64, :, sorted(fl8.terminal_states)] == 0)

    def test_invariant_under_trajectory_order(self, fl8_dataset, fl8):
        a = EmpiricalModel.from_dataset(fl8_dataset).to_mdp(64, 4, fl8.gamma)
        b = EmpiricalModel.from_dataset(
            shuffled_trajectories(fl8_dataset, 0)).to_mdp(64, 4, fl8.gamma)
        for col in ("transition", "cost_c", "cost_g", "initial_dist"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_rejects_data_outside_the_sizes(self):
        model = EmpiricalModel.from_dataset(self.hand_dataset())
        for S, A in [(1, 2), (3, 1)]:
            with pytest.raises(ValueError, match="does not fit"):
                model.to_mdp(S, A, 0.9)


class TestModelMatchesPerSampleRegression:
    """fqe/fqi on the deduplicated table agree with one regression over every
    sample per sweep, in Q and in the residuals."""

    TOL = 1e-12

    def cases(self, fl8_dataset):
        yield fl8_dataset, 64, 4, 0.95
        yield random_chain_dataset(6, 3, 2, 300, seed=2), 6, 3, 0.9

    def assert_close(self, got, expect):
        q_got, res_got = got
        q_exp, res_exp = expect
        assert np.abs(q_got.values() - q_exp.values()).max() <= self.TOL
        assert np.abs(np.subtract(res_got, res_exp)).max() <= self.TOL

    @pytest.mark.parametrize("kind", ["tabular", "linear"])
    def test_fqi(self, fl8_dataset, kind):
        for data, S, A, gamma in self.cases(fl8_dataset):
            template = templates(S, A)[kind]
            cost = CostSelector.scalarized(np.full(data.m, 2.0))
            _, run = fqi(data, cost, 20, template, gamma=gamma)
            expect = per_sample_sweeps(data, cost, 20, template, gamma,
                                       lambda v, nx: v[nx].min(axis=1))
            self.assert_close((run.q_final, run.per_iteration_bellman_residuals),
                              expect)

    @pytest.mark.parametrize("kind", ["tabular", "linear"])
    def test_fqe(self, fl8_dataset, kind):
        for data, S, A, gamma in self.cases(fl8_dataset):
            template = templates(S, A)[kind]
            rng = np.random.default_rng(4)
            det = DeterministicPolicy(rng.integers(0, A, size=S))
            sto = StochasticPolicy(rng.dirichlet(np.ones(A), size=S))
            model = EmpiricalModel.from_dataset(data)
            for policy, bootstrap in (
                    (det, lambda v, nx: v[nx, det.actions[nx]]),
                    (sto, lambda v, nx: np.einsum("na,na->n", sto.probs[nx],
                                                  v[nx]))):
                cost = CostSelector.constraint(data.m - 1)
                _, run = fqe(model, policy, cost, 20, template, gamma=gamma)
                expect = per_sample_sweeps(data, cost, 20, template, gamma,
                                           bootstrap)
                self.assert_close(
                    (run.q_final, run.per_iteration_bellman_residuals), expect)

    def test_dataset_and_model_give_identical_results(self, fl8_dataset, fl8):
        model = EmpiricalModel.from_dataset(fl8_dataset)
        policy = DeterministicPolicy(np.full(64, 1))
        template = template_for(fl8)
        assert (fqe(fl8_dataset, policy, CostSelector.primary(), 30, template,
                    mdp=fl8)[0]
                == fqe(model, policy, CostSelector.primary(), 30, template,
                       mdp=fl8)[0])


def chained_fits(model, cost, K, template, gamma, bootstrap):
    """K fit_least_squares calls on the model's rows weighted by their
    counts, each with its RMS residual: the sweep loop with the regression
    set up anew every sweep. bootstrap maps the (S, A) values to state
    values."""
    costs = cost.select(model)
    w = model.count
    q = template
    residuals = []
    for _ in range(K):
        y = costs + gamma * np.where(model.done, 0.0,
                                     bootstrap(q.values())[model.x_next])
        q = fit_least_squares((model.x, model.a), y, template, weights=w)
        err = q.values()[model.x, model.a] - y
        residuals.append(float(np.sqrt(np.dot(w, err * err) / w.sum())))
    return q, residuals


class TestTabularKernelMatchesChainedFits:
    """fqi and fqe on a tabular or a linear template equal K chained
    fit_least_squares calls bit for bit, in Q and in every residual."""

    K = 30

    @staticmethod
    def models(fl8_dataset):
        """The dataset's model and, built as an OPE trial builds it, the
        restricted model of a 10 % draw of trajectories."""
        model, row_ids = EmpiricalModel.with_row_ids(fl8_dataset)
        yield model
        _, rows = draw_trajectories(fl8_dataset, 0.1,
                                    np.random.default_rng(3))
        yield model.restrict(row_ids[rows],
                             fl8_dataset.x[rows[fl8_dataset.t[rows] == 0]])

    @staticmethod
    def template(kind, model):
        """A zero or a random nonzero table, and the cells the model never
        visits, which must keep the template's values; or random weights on
        16 random features, and no such cells."""
        rng = np.random.default_rng(7)
        if kind == "linear":
            features = FeatureMap(rng.normal(size=(64, 4, 16)))
            return QFunction(weights=rng.normal(size=16),
                             features=features), None
        table = (np.zeros((64, 4)) if kind == "zero"
                 else rng.normal(size=(64, 4)))
        unseen = np.ones((64, 4), dtype=bool)
        unseen[model.x, model.a] = False
        assert unseen.any()
        return QFunction(table=table), unseen

    @staticmethod
    def assert_identical(run, expect, template, unseen):
        q, residuals = expect
        got = run.q_final.values()
        assert got.tobytes() == q.values().tobytes()
        assert (np.array(run.per_iteration_bellman_residuals).tobytes()
                == np.array(residuals).tobytes())
        if template.is_tabular:
            assert np.array_equal(got[unseen], template.table[unseen])
        else:
            assert run.q_final.weights.tobytes() == q.weights.tobytes()

    @pytest.mark.parametrize("kind", ["zero", "nonzero", "linear"])
    def test_fqi(self, fl8_dataset, fl8, kind):
        cost = CostSelector.scalarized([3.0])
        for model in self.models(fl8_dataset):
            template, unseen = self.template(kind, model)
            _, run = fqi(model, cost, self.K, template, mdp=fl8)
            expect = chained_fits(model, cost, self.K, template, fl8.gamma,
                                  lambda v: v.min(axis=1))
            self.assert_identical(run, expect, template, unseen)

    @pytest.mark.parametrize("kind", ["zero", "nonzero", "linear"])
    def test_fqe(self, fl8_dataset, fl8, kind):
        rng = np.random.default_rng(4)
        det = DeterministicPolicy(rng.integers(0, 4, size=64))
        sto = StochasticPolicy(rng.dirichlet(np.ones(4), size=64))
        bootstraps = ((det, lambda v: v[np.arange(64), det.actions]),
                      (sto, lambda v: np.einsum("xa,xa->x", sto.probs, v)))
        for model in self.models(fl8_dataset):
            template, unseen = self.template(kind, model)
            for policy, bootstrap in bootstraps:
                for cost in (CostSelector.primary(),
                             CostSelector.constraint(0)):
                    _, run = fqe(model, policy, cost, self.K, template,
                                 mdp=fl8)
                    expect = chained_fits(model, cost, self.K, template,
                                          fl8.gamma, bootstrap)
                    self.assert_identical(run, expect, template, unseen)


class TestFittedInputChecks:
    @pytest.mark.parametrize("count", [[2.0, -1.0], [-0.5, 3.0]])
    def test_negative_count_raises(self, count):
        model = EmpiricalModel([0, 1], [0, 1], [1, 1], [False, True],
                               [1.0, 0.5], np.zeros((2, 0)), count, [0])
        template = QFunction.tabular_zeros(2, 2)
        with pytest.raises(ValueError, match="weights"):
            fqi(model, CostSelector.primary(), 5, template, gamma=0.9)
        with pytest.raises(ValueError, match="weights"):
            fqe(model, DeterministicPolicy([0, 1]), CostSelector.primary(),
                5, template, gamma=0.9)


class TestFqiTieBreaking:
    def test_policy_unchanged_by_trajectory_order(self, fl8_dataset, fl8):
        cost = CostSelector.scalarized([15.0])
        policy, _ = fqi(fl8_dataset, cost, 100, template_for(fl8), mdp=fl8)
        for seed in (0, 1):
            shuffled = shuffled_trajectories(fl8_dataset, seed)
            again, _ = fqi(shuffled, cost, 100, template_for(fl8), mdp=fl8)
            assert np.array_equal(again.actions, policy.actions)

    def test_tiny_multiplier_keeps_hole_actions_apart(self, fl8_dataset, fl8):
        # At lam = 1e-12 the Q rows of states 60 and 62 are [lam, 0, 0, 0]:
        # action 0 steps into a hole. A tolerance of 1e-9 not scaled to the
        # row called that a tie and took action 0.
        policy, run = fqi(fl8_dataset, CostSelector.scalarized([1e-12]), 100,
                          template_for(fl8), mdp=fl8)
        assert np.array_equal(run.q_final.values()[60], [1e-12, 0, 0, 0])
        enters_hole = fl8.cost_g[np.arange(64), policy.actions, 0] > 0
        assert not enters_hole.any(), np.flatnonzero(enters_hole)

    def test_exact_ties_pick_lowest_action(self):
        # One state, three actions, every sample terminal. Actions 1 and 2
        # have the same mean cost 0.15, but 0.1 + 0.2 rounds up, so the
        # computed mean of action 1 exceeds that of action 2 by about 3e-17;
        # the tie still goes to the lower index.
        a = [0, 1, 1, 2, 2]
        c = [0.5, 0.1, 0.2, 0.15, 0.15]
        n = len(a)
        data = Dataset(np.arange(n), np.zeros(n), np.zeros(n), a,
                       np.zeros(n), c, np.zeros((n, 0)), np.ones(n, dtype=bool),
                       np.full(n, 1.0 / 3))
        policy, run = fqi(data, CostSelector.primary(), 3,
                          QFunction.tabular_zeros(1, 3), gamma=0.9)
        q = run.q_final.values()[0]
        assert q[1] != q[2] and abs(q[1] - q[2]) < 1e-15
        assert policy.actions[0] == 1
