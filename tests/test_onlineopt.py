import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpl.onlineopt import (DualVector, EG_FLAVOR, OGD_FLAVOR, augmented_loss,
                            eg_init, eg_regret_bound, eg_update, ogd_init,
                            ogd_update)


class TestDualVector:
    def test_eg_invariant_validation(self):
        DualVector([1.0, 2.0], 3.0, EG_FLAVOR)
        with pytest.raises(ValueError):
            DualVector([1.0, 1.0], 3.0, EG_FLAVOR)  # sum != budget
        with pytest.raises(ValueError):
            DualVector([0.0, 3.0], 3.0, EG_FLAVOR)  # nonpositive coordinate

    def test_ogd_invariant_validation(self):
        DualVector([3.0, 4.0], 5.0, OGD_FLAVOR)
        with pytest.raises(ValueError):
            DualVector([3.0, 4.0], 4.0, OGD_FLAVOR)  # outside l2 ball
        with pytest.raises(ValueError):
            DualVector([-1.0, 0.0], 5.0, OGD_FLAVOR)

    def test_m_excludes_augmented_coordinate(self):
        lam = eg_init(2, 3.0)
        assert len(lam.coords) - 1 == 2
        assert np.array_equal(lam.coords[:-1], [1.0, 1.0])
        assert len(ogd_init(2, 3.0).coords) == 2


class TestEgInit:
    def test_default_experiment_scale(self):
        assert np.array_equal(eg_init(1, 30.0).coords, [15.0, 15.0])

    def test_degenerate_and_uniform_cases(self):
        assert np.array_equal(eg_init(0, 1.0).coords, [1.0])
        assert np.array_equal(eg_init(2, 3.0).coords, [1.0, 1.0, 1.0])

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            eg_init(1, 0.0)


class TestAugmentedLoss:
    def test_appends_exact_zero(self):
        z = augmented_loss(np.array([0.3, 0.7]), np.array([0.1, 0.1]))
        assert np.allclose(z[:2], [0.2, 0.6])
        assert z[2] == 0.0


class TestEgUpdate:
    def test_zero_loss_is_identity(self):
        lam = eg_init(1, 30.0)
        out = eg_update(lam, np.zeros(2), 50.0)
        assert np.allclose(out.coords, lam.coords)

    def test_hand_example(self):
        lam = DualVector([0.5, 0.5], 1.0, EG_FLAVOR)
        out = eg_update(lam, np.array([1.0, 0.0]), math.log(2.0))
        assert np.allclose(out.coords, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_large_exponents_do_not_overflow(self):
        lam = eg_init(1, 30.0)
        out = eg_update(lam, np.array([1e6, -1e6]), 50.0)
        assert np.isfinite(out.coords).all()
        assert out.coords.sum() == pytest.approx(30.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 10.0),
           st.floats(0.1, 100.0))
    def test_simplex_invariant_preserved(self, seed, eta, budget):
        rng = np.random.default_rng(seed)
        lam = eg_init(2, budget)
        for _ in range(20):
            lam = eg_update(lam, rng.uniform(-2, 2, 3), eta)
            assert lam.coords.sum() == pytest.approx(budget, abs=1e-9)
            assert np.all(lam.coords > 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_commutes_with_coordinate_permutation(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.1, 1.0, 3)
        coords = 2.0 * coords / coords.sum()
        z = rng.uniform(-1, 1, 3)
        perm = rng.permutation(3)
        direct = eg_update(DualVector(coords, 2.0, EG_FLAVOR), z, 0.7).coords
        permuted = eg_update(DualVector(coords[perm], 2.0, EG_FLAVOR),
                             z[perm], 0.7).coords
        assert np.allclose(direct[perm], permuted, atol=1e-12)

    def test_ascent_direction_moves_mass_toward_violation(self):
        # As used by the learner: the violated constraint's coordinate grows.
        lam = eg_init(1, 30.0)
        z = augmented_loss(np.array([0.5]), np.array([0.1]))  # violation 0.4
        out = eg_update(lam, -z, 1.0)
        assert out.coords[0] > lam.coords[0]


class TestOgdUpdate:
    def test_zero_step_is_identity(self):
        lam = DualVector([1.0, 2.0], 10.0, OGD_FLAVOR)
        out = ogd_update(lam, np.zeros(2), 0.5)
        assert np.allclose(out.coords, lam.coords)

    def test_single_ascent_step_inside_ball(self):
        lam = ogd_init(2, 10.0)
        out = ogd_update(lam, np.array([1.0, 0.0]), 1.0)
        assert np.allclose(out.coords, [1.0, 0.0])

    def test_projection_scales_onto_ball(self):
        # A step to (3, 4) under budget 2.5 projects back to (1.5, 2).
        lam = DualVector([1.5, 2.0], 2.5, OGD_FLAVOR)
        out = ogd_update(lam, np.array([1.5, 2.0]), 1.0)
        assert np.allclose(out.coords, [1.5, 2.0], atol=1e-12)

    def test_negative_coordinates_clipped(self):
        lam = DualVector([0.5, 0.5], 10.0, OGD_FLAVOR)
        out = ogd_update(lam, np.array([-10.0, 0.0]), 1.0)
        assert out.coords[0] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_stays_inside_ball(self, seed):
        rng = np.random.default_rng(seed)
        lam = ogd_init(3, 2.0)
        for _ in range(20):
            lam = ogd_update(lam, rng.uniform(-3, 3, 3), 0.9)
            assert np.linalg.norm(lam.coords) <= 2.0 + 1e-9
            assert np.all(lam.coords >= 0)


class TestEgRegretBound:
    def test_arithmetic_example(self):
        val = eg_regret_bound(30.0, 50.0, 1.0, 1000, m=1)
        assert val == pytest.approx(30 * math.log(2) / 50000 + 50 * 30,
                                    abs=1e-9)
        assert val == pytest.approx(1500.000416, abs=1e-6)

    def test_large_horizon_limit(self):
        assert eg_regret_bound(30.0, 0.1, 1.0, 10 ** 12, m=1) == pytest.approx(
            0.1 * 30.0, abs=1e-6)

    def test_tuned_rate_gives_half_omega(self):
        B, g_bar, omega, m = 30.0, 20.0, 0.05, 1
        eta = omega / (4 * g_bar ** 2 * B)
        T = 16 * B ** 2 * g_bar ** 2 * math.log(m + 1) / omega ** 2
        assert eg_regret_bound(B, eta, g_bar, T, m=m) == pytest.approx(
            omega / 2, abs=1e-12)

    def test_empirical_regret_below_bound(self):
        B, T = 30.0, 2000
        for eta in (0.01, 0.05):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                z_seq = rng.uniform(-1.0, 1.0, size=(T, 2))
                lam = eg_init(1, B)
                gained = 0.0
                totals = np.zeros(2)
                for z in z_seq:
                    gained += float(lam.coords @ z)
                    totals += z
                    lam = eg_update(lam, -z, eta)
                best_fixed = B * totals.max()
                avg_regret = (best_fixed - gained) / T
                assert avg_regret <= eg_regret_bound(B, eta, 1.0, T, m=1)
