import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbpl.funcapprox import (TIE_TOL, FeatureMap, QFunction,
                             fit_least_squares, greedy_actions, greedy_policy,
                             one_hot_features)
from cbpl.mdp import ACTION_EAST, build_frozenlake
from cbpl.oracle import value_iteration


def two_cell_features():
    return FeatureMap(np.eye(2).reshape(1, 2, 2))


class TestFitLeastSquares:
    def test_single_point_tabular(self):
        template = QFunction.tabular_zeros(2, 2)
        q = fit_least_squares(([0], [1]), [3.0], template)
        assert q.table[0, 1] == 3.0
        assert q.table.sum() == 3.0  # all other cells unchanged

    def test_repeated_cell_takes_mean(self):
        template = QFunction.tabular_zeros(1, 1)
        q = fit_least_squares(([0, 0], [0, 0]), [1.0, 3.0], template)
        assert q.table[0, 0] == 2.0

    def test_one_hot_normal_equations(self):
        template = QFunction.linear_zeros(two_cell_features())
        q = fit_least_squares(([0, 0], [0, 1]), [1.0, 3.0], template, ridge=0.0)
        assert np.allclose(q.weights, [1.0, 3.0])

    def test_unseen_cells_keep_template_values(self):
        template = QFunction(table=np.full((2, 2), 7.0))
        q = fit_least_squares(([0], [0]), [1.0], template)
        assert q.table[0, 0] == 1.0
        assert q.table[1, 1] == 7.0

    def test_singular_system_advises_positive_ridge(self):
        # Two identical feature columns make the Gram matrix singular.
        feats = FeatureMap(np.ones((1, 1, 2)))
        template = QFunction.linear_zeros(feats)
        with pytest.raises(np.linalg.LinAlgError, match="ridge"):
            fit_least_squares(([0], [0]), [1.0], template, ridge=0.0)

    def test_empty_inputs_raise(self):
        template = QFunction.tabular_zeros(1, 1)
        with pytest.raises(ValueError):
            fit_least_squares(([], []), [], template)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_one_hot_linear_fit_equals_tabular_fit(self, seed):
        rng = np.random.default_rng(seed)
        S, A, n = 3, 2, 12
        xs = rng.integers(0, S, n)
        aa = rng.integers(0, A, n)
        y = rng.normal(size=n)
        tab = fit_least_squares((xs, aa), y, QFunction.tabular_zeros(S, A))
        feats = FeatureMap(np.eye(S * A).reshape(S, A, S * A))
        # A tiny ridge keeps unseen one-hot coordinates solvable; it perturbs
        # seen-cell means by a relative 1e-12.
        lin = fit_least_squares((xs, aa), y, QFunction.linear_zeros(feats),
                                ridge=1e-12)
        seen = np.zeros((S, A), dtype=bool)
        seen[xs, aa] = True
        assert np.allclose(tab.table[seen], lin.values()[seen], atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_fit_never_increases_training_mse(self, seed):
        rng = np.random.default_rng(seed)
        S, A, n = 3, 2, 10
        xs = rng.integers(0, S, n)
        aa = rng.integers(0, A, n)
        y = rng.normal(size=n)
        template = QFunction(table=rng.normal(size=(S, A)))
        q = fit_least_squares((xs, aa), y, template)
        mse_before = np.mean((template.table[xs, aa] - y) ** 2)
        mse_after = np.mean((q.table[xs, aa] - y) ** 2)
        assert mse_after <= mse_before + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    # Two distinct (x, a) pairs give a rank-2 design for 3 features; solving
    # the ridge normal equations left the two fits 6e-7 apart.
    @example(15494856)
    def test_integer_weights_equal_repeated_rows(self, seed):
        rng = np.random.default_rng(seed)
        S, A, n = 3, 2, 8
        xs = rng.integers(0, S, n)
        aa = rng.integers(0, A, n)
        y = rng.normal(size=n)
        w = rng.integers(1, 5, n)
        rep = np.repeat(np.arange(n), w)
        feats = FeatureMap(rng.normal(size=(S, A, 3)))
        for template in (QFunction.tabular_zeros(S, A),
                         QFunction.linear_zeros(feats)):
            weighted = fit_least_squares((xs, aa), y, template, weights=w)
            repeated = fit_least_squares((xs[rep], aa[rep]), y[rep], template)
            assert np.allclose(weighted.values(), repeated.values(),
                               rtol=1e-10, atol=1e-12)

    def test_zero_weight_cell_keeps_template_value(self):
        template = QFunction(table=np.full((1, 2), 7.0))
        q = fit_least_squares(([0, 0], [0, 1]), [1.0, 3.0], template,
                              weights=[2.0, 0.0])
        assert q.table.tolist() == [[1.0, 7.0]]

    @pytest.mark.parametrize("weights", [[1.0], [1.0, -1.0]])
    def test_bad_weights_raise(self, weights):
        template = QFunction.tabular_zeros(1, 2)
        with pytest.raises(ValueError, match="weights"):
            fit_least_squares(([0, 0], [0, 1]), [1.0, 3.0], template,
                              weights=weights)


class TestQValue:
    def test_zero_tabular(self):
        assert QFunction.tabular_zeros(2, 2).values()[1, 1] == 0.0

    def test_zero_linear(self):
        assert QFunction.linear_zeros(two_cell_features()).values()[0, 1] == 0.0

    def test_one_hot_dot_product(self):
        q = QFunction(weights=np.array([1.0, 3.0]), features=two_cell_features())
        assert q.values()[0, 1] == 3.0


class TestGreedyPolicy:
    def test_tie_break_lowest_index(self):
        q = QFunction(table=np.array([[2.0, 2.0, 2.0]]))
        assert greedy_policy(q).actions[0] == 0

    def test_argmin(self):
        q = QFunction(table=np.array([[2.0, 1.0, 5.0]]))
        assert greedy_policy(q).actions[0] == 1

    def test_tie_tolerance_is_relative_to_each_row(self):
        vals = np.array([[1.0 + 1e-12, 1.0, 2.0],
                         [1e-3 + 1e-11, 1e-3, 2e-3],
                         [0.0, 0.0, 0.0]])
        actions, tol = greedy_actions(vals)
        assert actions.tolist() == [0, 1, 0]
        assert np.array_equal(tol[:, 0], TIE_TOL * np.array([2.0, 2e-3, 0.0]))

    def test_optimal_q_on_corridor_grid(self):
        mdp = build_frozenlake(("SFG",))
        q_star = value_iteration(mdp, mdp.cost_c)
        policy = greedy_policy(q_star)
        assert policy.actions[0] == ACTION_EAST
        assert policy.actions[1] == ACTION_EAST

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-100, 100))
    def test_invariant_under_constant_shift(self, seed, shift):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(4, 3))
        base = greedy_policy(QFunction(table=table))
        shifted = greedy_policy(QFunction(table=table + shift))
        assert np.array_equal(base.actions, shifted.actions)


class TestOneHotFeatures:
    def test_dimensions_and_indicators(self):
        mdp = build_frozenlake(("SG",))
        feats = one_hot_features(mdp)
        assert feats.k == 2 * 4
        phi = feats.phi.reshape(-1, feats.k)
        assert np.all(phi.sum(axis=1) == 1.0)
        assert np.allclose(phi @ phi.T, np.eye(feats.k))

    def test_gram_matrix_identity(self, fl8):
        feats = one_hot_features(fl8)
        phi = feats.phi.reshape(-1, feats.k)
        assert np.allclose(phi.T @ phi, np.eye(feats.k))

