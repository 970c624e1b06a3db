import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbpl.learner as learner_mod
from cbpl.batchrl import (CostSelector, EmpiricalModel, fqi, lspi,
                          lstdq_policy)
from cbpl.dataset import (collect, full_coverage_dataset,
                          make_frozenlake_behavior)
from cbpl.funcapprox import FeatureMap, QFunction
from cbpl.learner import (ConvergenceError, LearnerConfig, MixturePolicy,
                          RunTrace, derandomize, exact_constrained_optimum,
                          lagrangian_max, regularization_grid, run,
                          write_trace_csv)
from cbpl.mdp import (DeterministicPolicy, StochasticPolicy, TabularMdp,
                      build_combination_lock, build_random_mdp)
from cbpl.onlineopt import (DualVector, EG_FLAVOR, OGD_FLAVOR,
                            augmented_loss, eg_init)
from cbpl.oracle import ExactSolver, exact_policy_values

from conftest import collect_fl8


TRACE_ARRAYS = ("rounds", "lambdas", "c_hat_member", "g_hat_member",
                "c_hat_mix", "g_hat_mix", "l_max", "l_min", "l_mid", "gap")


def exact_config(**kw):
    base = dict(B=30.0, eta=50.0, omega=0.05, tau=[0.1],
                subroutine_flavor="exact")
    base.update(kw)
    return LearnerConfig(**base)


@pytest.fixture(scope="module")
def small_fitted(fl8, fl8_behavior):
    """A small fitted run shared by the fitted-flavor checks."""
    data = collect_fl8(fl8, fl8_behavior, seed=9, trajs=300)
    config = LearnerConfig(B=30.0, eta=50.0, omega=0.05, tau=[0.1],
                           K_fqi=30, K_fqe=30, max_rounds=40,
                           subroutine_flavor="fitted")
    mixture, trace = run(data, config, mdp_handle=fl8)
    return data, config, mixture, trace


class TestLagrangianMax:
    def test_slack_constraints_use_augmented_coordinate(self):
        assert lagrangian_max(2.0, [0.05], [0.1], 30.0) == 2.0

    def test_violation_hand_example(self):
        assert lagrangian_max(1.0, [0.3, 0.0], [0.1, 0.1], 10.0) == pytest.approx(3.0)

    def test_zero_budget(self):
        assert lagrangian_max(1.5, [5.0], [0.1], 0.0) == 1.5

    @staticmethod
    def brute_force_ogd_max(c_hat, g_hat, tau, B):
        """max of C + lam.(G - tau) over a grid of the nonnegative quarter
        of the l2 ball of radius B (m = 2)."""
        angle = np.linspace(0.0, np.pi / 2, 2001)
        radius = np.linspace(0.0, B, 201)[:, None]
        lam1, lam2 = radius * np.cos(angle), radius * np.sin(angle)
        diff = np.asarray(g_hat) - np.asarray(tau)
        return float(np.max(c_hat + lam1 * diff[0] + lam2 * diff[1]))

    @pytest.mark.parametrize("case", [
        (0.0, [0.2, 0.2], [0.1, 0.1], 30.0),
        (1.0, [1.1, 1.1], [0.1, 0.1], 10.0),
        (-0.5, [0.4, 0.05], [0.1, 0.1], 30.0),
        (0.3, [0.0, 0.0], [0.1, 0.1], 30.0),
        (0.2, [0.9, 0.3], [0.1, 0.2], 7.0),
    ])
    def test_ogd_flavor_matches_brute_force_over_l2_ball(self, case):
        c_hat, g_hat, tau, B = case
        got = lagrangian_max(c_hat, g_hat, tau, B, flavor="ogd")
        assert got == pytest.approx(self.brute_force_ogd_max(*case), abs=1e-6)

    def test_ogd_flavor_hand_example(self):
        assert lagrangian_max(0.0, [0.2, 0.2], [0.1, 0.1], 30.0,
                              flavor="ogd") == pytest.approx(4.2426406871)
        assert lagrangian_max(0.0, [0.2, 0.2], [0.1, 0.1], 30.0,
                              flavor="eg") == pytest.approx(3.0)

    def test_run_certifies_ogd_gap_on_the_l2_ball(self):
        # Both constraints violated (G near 5 against tau = 0.1), so the l2
        # form exceeds the l1-simplex form by a factor of about sqrt(2).
        mdp = build_random_mdp(4, 2, 2, seed=0)
        config = exact_config(dual_flavor="ogd", tau=[0.1, 0.1], eta=1.0,
                              max_rounds=3, omega=1e-9)
        _, trace = run(None, config, mdp_handle=mdp)
        for g_mix, c_mix, l_max in zip(trace.g_hat_mix, trace.c_hat_mix,
                                       trace.l_max):
            assert np.all(g_mix > config.tau)
            assert l_max == lagrangian_max(c_mix, g_mix, config.tau,
                                           config.B, flavor="ogd")
            assert l_max > lagrangian_max(c_mix, g_mix, config.tau, config.B)


class TestLagrangianMin:
    """L_min = C(pi~) + lam.(G(pi~) - tau), pi~ the best response to lam."""

    def test_zero_multiplier_gives_unconstrained_value(self, fl8):
        config = exact_config()
        [(lam, _, c_til, g_til)] = regularization_grid(
            None, [np.zeros(1)], config, mdp_handle=fl8)
        l_min = c_til + float(lam @ (g_til - config.tau))
        solver = ExactSolver(fl8)
        pi_star = solver.best_response(np.zeros(1))
        c_star, _ = solver.policy_values(pi_star)
        assert l_min == pytest.approx(c_star, abs=1e-12)

    def test_matches_exact_solver_value(self, fl8):
        config = exact_config()
        dual = eg_init(1, 30.0)
        [(lam, _, c_til, g_til)] = regularization_grid(
            None, [dual.coords[:-1]], config, mdp_handle=fl8)
        l_min = c_til + float(lam @ (g_til - config.tau))
        solver = ExactSolver(fl8)
        expect_pi = solver.best_response(np.array([15.0]))
        c, g = solver.policy_values(expect_pi)
        assert l_min == pytest.approx(c + 15.0 * (g[0] - 0.1), abs=1e-8)

    def test_single_policy_class_closes_gap_in_one_round(self):
        # One action, vacuous constraint at tau = 0: L_max = L_min at t = 1.
        transition = np.ones((1, 1, 1))
        mdp = TabularMdp(transition, np.array([[1.0]]), np.zeros((1, 1, 1)),
                         0.9, np.ones(1))
        config = exact_config(tau=[0.0])
        mixture, trace = run(None, config, mdp_handle=mdp)
        assert trace.converged and trace.total_rounds == 1
        assert trace.gap[-1] == pytest.approx(0.0, abs=1e-12)


class TestRun:
    def test_slack_constraint_converges_to_unconstrained_optimum(self, fl8):
        config = exact_config(tau=[10.0], B=5.0, eta=1.0, omega=0.01)
        mixture, trace = run(None, config, mdp_handle=fl8)
        assert trace.converged
        solver = ExactSolver(fl8)
        c_star, _ = solver.policy_values(solver.best_response(np.zeros(1)))
        c_mix, _ = exact_policy_values(fl8, mixture)
        assert c_mix <= c_star + 0.01 + 1e-9

    def test_no_constraints_terminates_immediately(self):
        mdp = build_combination_lock(4)
        data = full_coverage_dataset(mdp)
        config = LearnerConfig(B=10.0, eta=1.0, omega=0.01, tau=[],
                               K_fqi=20, K_fqe=20, subroutine_flavor="fitted",
                               gamma=mdp.gamma)
        mixture, trace = run(data, config, mdp_handle=mdp)
        assert trace.converged and trace.total_rounds == 1
        assert trace.gap[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(mixture.members[0].actions[:2], [1, 1])

    def test_ogd_dual_flavor_starts_feasible_and_converges(self, fl8):
        config = exact_config(dual_flavor="ogd")
        mixture, trace = run(None, config, mdp_handle=fl8)
        assert trace.converged
        _, g = exact_policy_values(fl8, mixture)
        assert g[0] <= 0.1 + 1e-9

    def test_sandwich_property_every_round(self, fl8):
        config = exact_config()
        _, trace = run(None, config, mdp_handle=fl8)
        assert trace.converged
        assert np.all(trace.l_max >= trace.l_mid - 1e-9)
        assert np.all(trace.l_mid >= trace.l_min - 1e-9)
        assert np.allclose(trace.gap, trace.l_max - trace.l_min, atol=1e-12)

    def test_mixture_estimates_are_running_means(self, small_fitted):
        _, _, mixture, trace = small_fitted
        assert trace.stride == 1  # small run keeps every round
        running_c = np.cumsum(trace.c_hat_member) / trace.rounds
        running_g = (np.cumsum(trace.g_hat_member[:, 0]) / trace.rounds)
        assert np.allclose(trace.c_hat_mix, running_c, atol=1e-12)
        assert np.allclose(trace.g_hat_mix[:, 0], running_g, atol=1e-12)
        weights = mixture.weights
        mean_c = float(np.sum(weights * np.array(mixture.member_c_hat)))
        assert trace.c_hat_mix[-1] == pytest.approx(mean_c, abs=1e-12)

    def test_determinism(self, small_fitted, fl8):
        data, config, _, trace1 = small_fitted
        _, trace2 = run(data, config, mdp_handle=fl8)
        assert np.array_equal(trace1.rounds, trace2.rounds)
        assert np.array_equal(trace1.lambdas, trace2.lambdas)
        assert np.array_equal(trace1.gap, trace2.gap)

    def test_round_cap_reports_nonconvergence(self, fl8):
        config = exact_config(max_rounds=2)
        mixture, trace = run(None, config, mdp_handle=fl8)
        assert not trace.converged
        assert trace.termination_reason == "max_rounds reached"
        assert trace.total_rounds == 2

    def test_mismatched_constraint_count_raises(self, fl8, fl8_dataset):
        config = exact_config(tau=[0.1, 0.2])
        with pytest.raises(ValueError):
            run(fl8_dataset, config, mdp_handle=fl8)

    # The exact flavor solves the map, the others the data; without data,
    # a two-entry tau on the one-constraint map once reached a matmul.
    @pytest.mark.parametrize("flavor,data,name", [
        ("exact", False, "map"), ("fitted", True, "dataset"),
        ("lspi", True, "dataset")])
    def test_constraint_count_checked_against_what_is_solved(
            self, fl8, fl8_dataset, flavor, data, name):
        config = exact_config(tau=[0.1, 0.2], subroutine_flavor=flavor,
                              max_rounds=3)
        with pytest.raises(ValueError, match=f"^{name} constraint count "
                                             f"does not match tau$"):
            run(fl8_dataset if data else None, config, mdp_handle=fl8)
        with pytest.raises(ValueError, match="map constraint count"):
            exact_constrained_optimum(fl8, [0.1, 0.2], 30.0, 50.0, 0.05,
                                      max_rounds=3)

    @staticmethod
    def assert_blocks_match_generic_loop(data, config, mdp, monkeypatch):
        _, fast = run(data, config, mdp_handle=mdp)
        monkeypatch.setattr(learner_mod, "_block_advance",
                            lambda *a, **k: (None, False))
        _, slow = run(data, config, mdp_handle=mdp)
        assert fast.converged and slow.converged
        assert fast.total_rounds == slow.total_rounds
        assert fast.block_rounds > 0
        assert fast.block_rounds + fast.generic_rounds == fast.total_rounds
        assert slow.block_rounds == 0
        assert slow.generic_rounds == slow.total_rounds
        # Compare per-round records on the rounds both traces retained.
        common, fi, si = np.intersect1d(fast.rounds, slow.rounds,
                                        return_indices=True)
        assert len(common) > 100
        assert np.allclose(fast.lambdas[fi], slow.lambdas[si], atol=1e-9)
        assert np.allclose(fast.gap[fi], slow.gap[si], atol=1e-9)
        assert np.allclose(fast.c_hat_mix[fi], slow.c_hat_mix[si], atol=1e-9)

    def test_block_fast_forward_matches_generic_loop(self, fl8, monkeypatch):
        config = exact_config(eta=0.01, omega=0.3, max_rounds=20_000)
        self.assert_blocks_match_generic_loop(None, config, fl8, monkeypatch)

    def test_lspi_block_fast_forward_matches_generic_loop(self, fl8,
                                                          fl8_dataset,
                                                          monkeypatch):
        # The lspi flavor solves the data's empirical MDP exactly, so its
        # steady stretches take the same closed-form blocks.
        config = exact_config(eta=0.05, omega=0.1, max_rounds=20_000,
                              subroutine_flavor="lspi")
        self.assert_blocks_match_generic_loop(fl8_dataset, config, fl8,
                                              monkeypatch)

    def test_lspi_at_the_tuned_step_converges_with_fitted_values(self, fl8):
        # test_01's step size and round cap on the rows that
        # `cbpl collect --seed 1` writes: blocks carry the 399,252,792
        # rounds, and the mixture has the fitted flavor's exact values.
        data = collect(fl8, make_frozenlake_behavior(fl8, 0.95), 5000, 200,
                       np.random.default_rng(np.random.SeedSequence([1, 1])))
        B, omega, g_bar = 30.0, 0.05, 1.0 / (1.0 - fl8.gamma)
        eta = omega / (4 * g_bar ** 2 * B)
        cap = math.ceil(16 * B ** 2 * g_bar ** 2 * math.log(2) / omega ** 2)
        mixture, trace = run(data, exact_config(
            eta=eta, max_rounds=cap, subroutine_flavor="lspi"),
            mdp_handle=fl8)
        assert trace.converged and trace.gap[-1] <= omega
        assert trace.total_rounds == 399_252_792
        assert trace.generic_rounds < 10
        bounds = 2 * (B * math.log(2) / (eta * trace.rounds)
                      + eta * B * g_bar ** 2)
        assert np.all(trace.gap <= bounds + 1e-9)
        fitted, _ = run(data, exact_config(subroutine_flavor="fitted",
                                           max_rounds=200), mdp_handle=fl8)
        c, g = exact_policy_values(fl8, mixture)
        c_fitted, g_fitted = exact_policy_values(fl8, fitted)
        assert c == c_fitted and np.array_equal(g, g_fitted)
        assert c == pytest.approx(-0.51334, abs=1e-5) and g[0] == 0.0

    def test_failed_block_advances_back_off(self, monkeypatch):
        # Here no steady stretch survives its certificates; without a
        # backoff every repeated signature retried the block, about 500
        # failed attempts of up to 2^20 rounds each.
        mdp = build_random_mdp(8, 3, 1, seed=2)
        tau = [0.5 * mdp.cost_g.mean() / (1.0 - mdp.gamma)]
        config = exact_config(B=10.0, eta=0.05, omega=0.01, tau=tau)
        block = learner_mod._block_advance
        failures = []

        def counted(*args, **kwargs):
            out = block(*args, **kwargs)
            failures.append(out[0] is None)
            return out

        monkeypatch.setattr(learner_mod, "_block_advance", counted)
        mixture, trace = run(None, config, mdp_handle=mdp)
        monkeypatch.setattr(learner_mod, "_block_advance",
                            lambda *a, **k: (None, False))
        generic, generic_trace = run(None, config, mdp_handle=mdp)
        assert trace.converged and sum(failures) > 0
        assert sum(failures) <= math.ceil(math.log2(trace.total_rounds))
        assert trace.total_rounds == generic_trace.total_rounds
        assert np.array_equal(mixture.counts, generic.counts)
        for a, b in zip(mixture.members, generic.members):
            assert np.array_equal(a.actions, b.actions)


# The chunk length of reference_block_advance; its results do not depend on it.
REFERENCE_CHUNK = 1 << 15


def reference_block_advance(state, sub, lam, prev_sig, config, trace_buf,
                            max_rounds):
    """The chunked block advance the closed-form one replaced: every round
    of the block computed elementwise, in chunks of REFERENCE_CHUNK rounds
    with the running lambda sum carried from chunk to chunk. Same contract
    as learner._block_advance."""
    B, eta, omega, tau = config.B, config.eta, config.omega, config.tau
    pi_bytes, til_bytes = prev_sig[0], prev_sig[1]
    # The certified pi~ has til_bytes, and exact evaluations are cached by
    # policy, so its values are the ones the signature recorded.
    c_til, g_til0 = prev_sig[4], prev_sig[5][0]
    pi_t = state.members[-1]
    c_t, g_t = sub.evaluate(pi_t)
    z = augmented_loss(g_t, tau)
    exponent = eta * z  # per-round log-multiplier

    t0 = state.t
    J = min(1 << 20, max_rounds - t0)
    if J < 1:
        return None, False

    # Single-column closed form for the two-coordinate simplex: the first
    # coordinate after j updates is B * sigmoid(-(d0 + j*de)) with logit gap
    # d = log(lam1/lam0) growing linearly.
    l0, l1 = np.log(np.maximum(lam.coords, 1e-300))
    d0 = l1 - l0
    de = exponent[1] - exponent[0]

    size = min(REFERENCE_CHUNK, J)
    base = np.arange(size, dtype=float)
    j, t, d, ez, lam0, cum, lam_hat = (np.empty(size) for _ in range(7))
    c_mix, g_mix, l_max, l_min, gap, work = (np.empty(size) for _ in range(6))
    flags = np.empty(size, dtype=bool)

    def rows_at(sel):
        lam_sel, c_sel, g_sel = lam0[sel], c_mix[sel], g_mix[sel]
        l_mid = c_sel + lam_hat[sel] * (g_sel - tau[0])
        k = len(lam_sel)
        return np.column_stack([
            lam_sel, B - lam_sel, np.full(k, c_t), np.full(k, g_t[0]),
            c_sel, g_sel, l_max[sel], l_min[sel], l_mid, gap[sel]])

    lam_lo = hat_lo = math.inf
    lam_hi = hat_hi = -math.inf
    carry = 0.0
    stop = None  # rounds the block advances, known once the gap work ends
    converged = False
    pend_ts, pend_rows, pend_stride = [], [], trace_buf.stride
    for lo in range(0, J, size):
        n = min(size, J - lo)
        jv, tv, dv, ezv = j[:n], t[:n], d[:n], ez[:n]
        lv, cv, hv = lam0[:n], cum[:n], lam_hat[:n]
        np.add(base[:n], lo, out=jv)
        np.add(base[:n], t0 + 1 + lo, out=tv)  # exact below 2^53
        np.multiply(jv, de, out=dv)
        np.add(dv, d0, out=dv)
        np.abs(dv, out=ezv)
        np.negative(ezv, out=ezv)
        np.exp(ezv, out=ezv)
        # d is monotone in j, so the sign changes at most once: each sigmoid
        # branch is computed on its own side only.
        n_pos = int(np.count_nonzero(np.greater_equal(dv, 0.0, out=flags[:n])))
        pos = slice(n - n_pos, n) if de >= 0 else slice(0, n_pos)
        neg = slice(0, n - n_pos) if de >= 0 else slice(n_pos, n)
        np.add(ezv, 1.0, out=cv)
        np.divide(ezv[pos], cv[pos], out=lv[pos])
        np.divide(1.0, cv[neg], out=lv[neg])
        np.multiply(lv, B, out=lv)
        np.copyto(cv, lv)
        cv[0] += carry
        np.cumsum(cv, out=cv)
        carry = cv[-1]
        np.add(cv, state.sum_lam[0], out=hv)
        np.divide(hv, tv, out=hv)
        lam_lo, lam_hi = min(lam_lo, lv.min()), max(lam_hi, lv.max())
        hat_lo, hat_hi = min(hat_lo, hv.min()), max(hat_hi, hv.max())
        if stop is not None:
            continue  # past the first gap hit only the certificates need it

        cm, gm, lx, ln, gp, wk = (c_mix[:n], g_mix[:n], l_max[:n],
                                  l_min[:n], gap[:n], work[:n])
        np.add(jv, 1.0, out=wk)
        np.multiply(wk, c_t, out=cm)
        np.add(cm, state.sum_c, out=cm)
        np.divide(cm, tv, out=cm)
        np.multiply(wk, g_t[0], out=gm)
        np.add(gm, state.sum_g[0], out=gm)
        np.divide(gm, tv, out=gm)
        np.subtract(gm, tau[0], out=wk)
        np.maximum(0.0, wk, out=wk)
        np.multiply(wk, B, out=wk)
        np.add(cm, wk, out=lx)
        np.multiply(hv, g_til0 - tau[0], out=ln)
        np.add(ln, c_til, out=ln)
        np.subtract(lx, ln, out=gp)
        hits = np.less_equal(gp, omega, out=flags[:n])
        converged = bool(hits.any())
        m = int(np.argmax(hits)) + 1 if converged else n

        # Trace rows of the kept rounds, at the stride the buffer will have
        # once these rounds are in.
        t_end = t0 + lo + m
        stride = trace_buf.stride_for(t_end)
        if stride != pend_stride:
            keeps = [ts % stride == 0 for ts in pend_ts]
            pend_ts = [ts[k] for ts, k in zip(pend_ts, keeps)]
            pend_rows = [rows[k] for rows, k in zip(pend_rows, keeps)]
            pend_stride = stride
        first = -(t0 + 1 + lo) % stride
        pend_ts.append(np.arange(t0 + 1 + lo + first, t_end + 1, stride,
                                 dtype=np.int64))
        pend_rows.append(rows_at(slice(first, m, stride)))
        if converged or lo + n == J:
            stop = lo + m
            final = (t_end, rows_at(slice(m - 1, m))[0])
            cum_stop, lam_stop = cv[m - 1], lv[m - 1]

    # Stability certificates: best responses constant over the 1-d multiplier
    # ranges covered by the block (regions are intervals, so endpoints suffice).
    for v in (lam_lo, lam_hi):
        if sub.best_response(np.array([v])).actions.tobytes() != pi_bytes:
            return None, False
    for v in (hat_lo, hat_hi):
        if sub.best_response(np.array([v])).actions.tobytes() != til_bytes:
            return None, False

    # The final stride's kept rounds in the block are among the materialized
    # ones and the block's last round.
    ts = np.append(np.concatenate(pend_ts), final[0])
    rows = np.vstack([*pend_rows, final[1]])

    def rows_at(j):
        at = np.searchsorted(ts, j + (t0 + 1))
        assert np.array_equal(ts[at], j + (t0 + 1))
        return rows[at]

    trace_buf.defer(t0, t0 + stop, rows_at)
    state.add_member(pi_t, c_t, g_t, repeat=stop)
    state.sum_lam[0] += cum_stop
    state.sum_lam[1] += stop * B - cum_stop
    if converged:
        v0 = lam_stop
    else:
        # Multiplier entering round t0+stop+1.
        dn = d0 + stop * de
        ezn = math.exp(-abs(dn))
        v0 = B * (ezn / (1.0 + ezn) if dn >= 0 else 1.0 / (1.0 + ezn))
    coords = np.maximum([v0, B - v0], 1e-300)
    next_lam = DualVector(coords, B, EG_FLAVOR)
    return next_lam, converged


def assert_same_run(out, expected):
    """out matches the reference run expected: columns the closed forms
    share with it bit for bit, lam-hat's columns within 1e-12 relative."""
    (mixture, trace), (ref_mixture, ref) = out, expected
    for field in ("converged", "total_rounds", "stride", "block_rounds",
                  "generic_rounds"):
        assert getattr(trace, field) == getattr(ref, field), field
    for field in ("rounds", "lambdas", "c_hat_member", "g_hat_member",
                  "c_hat_mix", "g_hat_mix", "l_max"):
        assert np.array_equal(getattr(trace, field), getattr(ref, field)), field
    for field in ("l_min", "l_mid", "gap"):
        np.testing.assert_allclose(getattr(trace, field), getattr(ref, field),
                                   rtol=1e-12, atol=0, err_msg=field)
    assert np.array_equal(mixture.counts, ref_mixture.counts)
    assert len(mixture.members) == len(ref_mixture.members)
    for a, b in zip(mixture.members, ref_mixture.members):
        assert np.array_equal(a.actions, b.actions)


class TestClosedFormBlocks:
    # test_01's step size: omega / (4 Gbar^2 B) with Gbar = 1 / (1 - gamma).
    TUNED_ETA = 0.05 / (4 * 20.0 ** 2 * 30.0)
    RUNS = {
        # One block from round 3; the gap reaches omega at round 83,193.
        "converges_inside_the_block": dict(eta=0.005, max_rounds=100_000),
        # Never converges; the block is cut by max_rounds.
        "stops_mid_block_at_max_rounds": dict(eta=0.001, omega=1e-6,
                                              max_rounds=50_000),
        "fast_forward": dict(eta=0.01, omega=0.3, max_rounds=20_000),
        # Four full blocks of test_01's run, with a thinned trace.
        "tuned_four_blocks": dict(eta=TUNED_ETA, max_rounds=4 * 2 ** 20 + 2),
    }

    @staticmethod
    def assert_matches_reference(name, mdp, monkeypatch,
                                 wrap=lambda advance: advance):
        """Run RUNS[name] with the closed-form block advance and with
        reference_block_advance, each passed through wrap; the runs must
        agree. Returns the closed-form run's trace."""
        config = exact_config(**TestClosedFormBlocks.RUNS[name])
        monkeypatch.setattr(learner_mod, "_block_advance",
                            wrap(learner_mod._block_advance))
        out = run(None, config, mdp_handle=mdp)
        monkeypatch.setattr(learner_mod, "_block_advance",
                            wrap(reference_block_advance))
        expected = run(None, config, mdp_handle=mdp)
        assert out[1].block_rounds > 0
        assert_same_run(out, expected)
        return out[1]

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_matches_reference_block_advance(self, name, fl8, monkeypatch):
        trace = self.assert_matches_reference(name, fl8, monkeypatch)
        if name == "converges_inside_the_block":
            assert trace.converged and trace.total_rounds == 83_193
        if name == "tuned_four_blocks":
            assert trace.block_rounds == 4 * 2 ** 20 and trace.stride > 1

    # Under a 1,000-row trace the stride doubles inside blocks and across
    # them; the first run converges mid-block at stride 128.
    @pytest.mark.parametrize("name", ["converges_inside_the_block",
                                      "stops_mid_block_at_max_rounds",
                                      "tuned_four_blocks"])
    def test_matches_reference_under_a_thinned_trace(self, name, fl8,
                                                      monkeypatch):
        monkeypatch.setattr(learner_mod, "_TRACE_LIMIT", 1_000)
        trace = self.assert_matches_reference(name, fl8, monkeypatch)
        assert trace.stride >= 64

    def test_generic_rounds_between_blocks_match_reference(self, fl8,
                                                           monkeypatch):
        # Refusing the third and fourth block attempts plays generic rounds
        # between the second block and the third; unrefused, the run plays
        # only its first 2 rounds generically.
        monkeypatch.setattr(learner_mod, "_TRACE_LIMIT", 1_000)

        def refusing(advance):
            calls = []

            def wrapped(*args):
                calls.append(1)
                return (None, False) if len(calls) in (3, 4) else advance(*args)
            return wrapped

        trace = self.assert_matches_reference("tuned_four_blocks", fl8,
                                              monkeypatch, refusing)
        assert trace.generic_rounds > 2 and trace.stride > 1
        assert 2 * 2 ** 20 < trace.block_rounds < 4 * 2 ** 20

    @staticmethod
    def fixed_block(advance, lam0, lam_hat0, g_t, omega, asked):
        """One block from round 2 of a stub game whose best response is
        always the same policy, with C 1 and G g_t, and whose pi~ has C 1
        and G 0; tau is 0.1. Returns (the block's result, the state, lam
        and lam-hat over the 2^20 rounds of the block)."""
        B, J = 30.0, 2 ** 20
        policy = DeterministicPolicy(np.zeros(4, dtype=np.int64))

        class FixedSub:
            def evaluate(self, pi):
                return 1.0, np.array([g_t])

            def best_response(self, lam_m):
                asked.append(float(lam_m[0]))
                return policy

        state = learner_mod._RunState(1, 2)
        state.add_member(policy, 1.0, np.array([g_t]), repeat=2)
        state.sum_lam[:] = [2 * lam_hat0, 2 * (B - lam_hat0)]
        sig = (policy.actions.tobytes(), policy.actions.tobytes(),
               1.0, (g_t,), 1.0, (0.0,))
        config = exact_config(eta=1e-5, omega=omega, max_rounds=10 * J)
        block = (learner_mod._block_advance if advance == "closed_form"
                 else reference_block_advance)
        out = block(state, FixedSub(), DualVector([lam0, B - lam0], B, EG_FLAVOR),
                    sig, config, learner_mod._TraceBuffer(64), 10 * J)
        lams = learner_mod._lambda_at(B, math.log((B - lam0) / lam0),
                                      -config.eta * (g_t - 0.1),
                                      np.arange(J, dtype=float))
        lam_hat = (2 * lam_hat0 + np.cumsum(lams)) / np.arange(3, J + 3)
        return out, state, lams, lam_hat

    @pytest.mark.parametrize("advance", ["closed_form", "reference"])
    def test_certificates_take_the_turn_of_lam_hat(self, advance):
        # lam falls from 29 while lam-hat starts at 0.5 below it: lam-hat
        # rises until lam crosses it, then falls, so the top of its range
        # lies inside the block.
        asked = []
        (next_lam, converged), _, _, lam_hat = self.fixed_block(
            advance, 29.0, 0.5, 0.0, 1e-9, asked)
        assert next_lam is not None and not converged
        J = len(lam_hat)
        peak = int(np.argmax(lam_hat))
        assert 0 < peak < J - 1
        np.testing.assert_allclose(asked[2:], [lam_hat.min(), lam_hat.max()],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("advance", ["closed_form", "reference"])
    def test_finds_a_gap_dip_between_kept_rounds(self, advance):
        # lam rises from 1 while lam-hat starts at 5 above it: lam-hat, and
        # with it the gap 3 + lam-hat / 10, falls until lam crosses it and
        # then rises. omega is met only near the bottom, first at block
        # index 1,456, between the grid points 0 and 8,189.
        _, _, _, lam_hat = self.fixed_block(advance, 1.0, 5.0, 0.2, 1e-9, [])
        gap = 3.0 + lam_hat / 10
        omega = (gap.min() + min(gap[0], gap[2 ** 14 - 1])) / 2
        first = int(np.argmax(gap <= omega))
        assert 0 < first < 2 ** 14 - 1
        (next_lam, converged), state, lams, _ = self.fixed_block(
            advance, 1.0, 5.0, 0.2, omega, [])
        assert converged and state.t == 2 + first + 1
        assert next_lam.coords[0] == lams[first]

    @pytest.mark.parametrize("de", [1e-7, -1e-7, 1e-5, -1e-4, 1e-3, -1e-3,
                                    1e-2, -1e-2, 0.05, -5.0])
    @pytest.mark.parametrize("d0", [2.08e-7, -3.0, 12.0])
    def test_lambda_sums_match_fsum(self, d0, de):
        B, J = 30.0, 2 ** 20
        lam = learner_mod._lambda_at(B, d0, de, np.arange(J, dtype=float))
        sums = learner_mod._lambda_sums(B, d0, de, J)
        n = np.array([0, 1, 2, 2048, J], dtype=float)
        expected = [math.fsum(lam[:int(k)].tolist()) for k in n]
        np.testing.assert_allclose(sums(n), expected, rtol=1e-12, atol=0)

    def test_lambda_sums_of_a_constant_multiplier(self):
        sums = learner_mod._lambda_sums(30.0, 0.4, 0.0, 100)
        lam = float(learner_mod._lambda_at(30.0, 0.4, 0.0, 0.0))
        assert np.array_equal(sums(np.arange(4.0)), np.arange(4.0) * lam)

    @pytest.mark.parametrize("path", ["block", "generic"])
    def test_small_trace_limit_keeps_stride_multiples_and_final_round(
            self, path, fl8, monkeypatch):
        if path == "block":
            mdp, limit, kw = fl8, 64, dict(eta=0.005, max_rounds=2_000_000)
        else:  # two constraints: every round is a generic one
            mdp, limit = build_random_mdp(6, 3, 2, seed=0), 16
            kw = dict(tau=[0.1, 0.1], eta=0.1, omega=1e-9, max_rounds=300)
        monkeypatch.setattr(learner_mod, "_TRACE_LIMIT", 100_000)
        _, full = run(None, exact_config(**kw), mdp_handle=mdp)
        monkeypatch.setattr(learner_mod, "_TRACE_LIMIT", limit)
        _, small = run(None, exact_config(**kw), mdp_handle=mdp)
        assert (full.block_rounds > 0) == (path == "block")
        assert full.stride == 1
        assert np.array_equal(full.rounds,
                              np.arange(1, full.total_rounds + 1))
        assert small.stride > 1 and len(small.rounds) <= limit + 1
        # The smallest doubling that keeps at most `limit` multiples.
        total = small.total_rounds
        assert total // small.stride <= limit < total // (small.stride // 2)
        keep = full.rounds % small.stride == 0
        keep[-1] = True
        for field in TRACE_ARRAYS:
            assert np.array_equal(getattr(small, field),
                                  getattr(full, field)[keep]), field


def trace_rows(t):
    """The rows [t, t / 3] of rounds t in the _TraceBuffer tests."""
    t = np.asarray(t, dtype=float)
    return np.column_stack([t, t / 3])


def fill_trace(limit, segments):
    """A _TraceBuffer of `limit` rows fed runs of rounds in order: each
    (kind, n) appends n rows one at a time or defers n rounds as a block.
    At most limit + 1 blocks are held after each run. Returns the buffer
    and the last round."""
    buf, t = learner_mod._TraceBuffer(limit), 0
    for kind, n in segments:
        if kind == "append":
            for t in range(t + 1, t + n + 1):
                buf.append(t, trace_rows(t)[0])
        else:
            buf.defer(t, t + n, lambda j, t0=t: trace_rows(j + (t0 + 1)))
            t += n
        assert len(buf.pieces) <= limit + 1
    return buf, t


class TestTraceBuffer:
    @staticmethod
    def assert_matches_naive(limit, segments):
        """finalize equals every round's row kept at the multiples of the
        smallest power-of-two stride with at most `limit` of them, plus the
        last round; returns (stride, last round)."""
        buf, total = fill_trace(limit, segments)
        stride = 1
        while total // stride > limit:
            stride *= 2
        ts = np.arange(1, total + 1, dtype=np.int64)
        ts = ts[(ts % stride == 0) | (ts == total)]
        rounds, rows = buf.finalize()
        assert buf.stride == stride
        assert rounds.dtype == np.int64 and np.array_equal(rounds, ts)
        assert rows.tobytes() == trace_rows(ts).tobytes()
        return stride, total

    @pytest.mark.parametrize("segments, last_kept", [
        ([("append", 3), ("defer", 13)], True),  # round 16 at stride 4
        ([("append", 3), ("defer", 14)], False),  # round 17 at stride 4
        ([("append", 2), ("defer", 9), ("append", 4), ("defer", 4)], False),
        ([("append", 2), ("defer", 9), ("append", 5)], True),
    ])
    def test_last_round_on_and_off_the_stride(self, segments, last_kept):
        stride, total = self.assert_matches_naive(4, segments)
        assert stride == 4 and (total % stride == 0) == last_kept

    @pytest.mark.parametrize("kind", ["append", "defer"])
    @pytest.mark.parametrize("total", [1, 5, 37, 64, 1000, 1027])
    def test_one_kind_of_rounds_only(self, kind, total):
        # Generic rounds only, or one block only.
        self.assert_matches_naive(5, [(kind, total)])

    def test_blocks_without_a_kept_round_are_dropped(self):
        # 3,000 blocks of 1 to 40 rounds under a limit of 4: the stride
        # outgrows the blocks, so most of them hold no kept round.
        rng = np.random.default_rng(0)
        segments = [("defer", int(n)) for n in rng.integers(1, 41, 3_000)]
        segments[1000:1000] = [("append", 7)]
        stride, _ = self.assert_matches_naive(4, segments)
        assert stride > 40

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 64),
           st.lists(st.tuples(st.sampled_from(["append", "defer"]),
                              st.integers(1, 300)),
                    min_size=1, max_size=12))
    def test_random_sequences_match_naive_reference(self, limit, segments):
        self.assert_matches_naive(limit, segments)


@pytest.fixture(scope="module")
def lspi_small_cases(fl8, fl8_behavior):
    """(dataset, map or None, S, A, gamma): small FrozenLake data on the
    map, and random-MDP data under a uniform behaviour policy without a map,
    where the initial distribution comes from the data's t = 0 states."""
    mdp = build_random_mdp(12, 3, 1, seed=4)
    uniform = StochasticPolicy(np.full((12, 3), 1.0 / 3))
    random_data = collect(mdp, uniform, 300, 20, np.random.default_rng(4))
    return [(collect_fl8(fl8, fl8_behavior, seed=3, trajs=200), fl8, 64, 4,
             fl8.gamma),
            (random_data, None, 12, 3, mdp.gamma)]


class TestLspiFlavor:
    """The lspi flavor solves the dataset's empirical MDP exactly; iterative
    LSPI and LSTDQ with one-hot features on the samples are the reference."""

    TOL = 1e-6

    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 30.0])
    def test_matches_lspi_and_lstdq(self, lam, lspi_small_cases):
        for data, mdp, S, A, gamma in lspi_small_cases:
            config = LearnerConfig(B=30.0, eta=50.0, omega=0.05, tau=[0.1],
                                   subroutine_flavor="lspi", gamma=gamma)
            [(_, policy, c_hat, g_hat)] = regularization_grid(
                data, [np.array([lam])], config, mdp_handle=mdp)

            features = FeatureMap(np.eye(S * A).reshape(S, A, S * A))
            result = lspi(data, CostSelector.scalarized([lam]), features,
                          gamma)
            assert result.converged
            q_ref = features.phi @ result.weights
            # Equal wherever the reference separates the actions by > TOL.
            near = q_ref <= q_ref.min(axis=1, keepdims=True) + self.TOL
            chosen = near[np.arange(S), policy.actions]
            assert chosen.all(), np.flatnonzero(~chosen)

            starts = data.x[data.t == 0]
            chi = (mdp.initial_dist if mdp is not None
                   else np.bincount(starts, minlength=S) / len(starts))
            for estimate, channel in ((c_hat, CostSelector.primary()),
                                      (g_hat[0], CostSelector.constraint(0))):
                w = lstdq_policy(data, policy, channel, features, gamma)
                q_pi = features.phi @ w
                expect = chi @ q_pi[np.arange(S), policy.actions]
                assert estimate == pytest.approx(expect, abs=self.TOL)

    def test_seed1_run_matches_fitted_flavor_exactly(self, fl8, fl8_dataset):
        results = {}
        for flavor in ("lspi", "fitted"):
            config = LearnerConfig(B=30.0, eta=50.0, omega=0.05, tau=[0.1],
                                   subroutine_flavor=flavor, max_rounds=100)
            mixture, trace = run(fl8_dataset, config, mdp_handle=fl8)
            assert trace.converged
            assert all(len(p.actions) == 64 for p in mixture.members)
            c, g = exact_policy_values(fl8, mixture)
            results[flavor] = (c, g[0])
        assert results["lspi"] == results["fitted"]

    def test_flavors_and_exact_optimum_agree_on_empirical_mdp(
            self, fl8, fitted_runs):
        # One tie rule: FQI, policy iteration on the empirical MDP and the
        # exact constrained optimum on it pick the same action at exact ties.
        for seed, (data, fitted, _, _) in fitted_runs.items():
            config = LearnerConfig(B=30.0, eta=50.0, omega=0.05, tau=[0.1],
                                   subroutine_flavor="lspi", max_rounds=100)
            lspi_mix, _ = run(data, config, mdp_handle=fl8)
            empirical = EmpiricalModel.from_dataset(data).to_mdp(
                64, 4, fl8.gamma, fl8.initial_dist)
            _, exact_mix = exact_constrained_optimum(empirical, [0.1], 30.0,
                                                     50.0, 0.05)
            for mixture in (lspi_mix, exact_mix):
                assert mixture.counts.tolist() == fitted.counts.tolist(), seed
                for a, b in zip(mixture.members, fitted.members):
                    assert np.array_equal(a.actions[:64], b.actions), seed


class TestRegularizedPath:
    def test_zero_multiplier_matches_unconstrained_fqi(self, small_fitted, fl8):
        data, config, _, _ = small_fitted
        [(_, policy, c_hat, g_hat)] = regularization_grid(
            data, [np.zeros(1)], config, mdp_handle=fl8)
        template = QFunction.tabular_zeros(64, 4)
        direct, _ = fqi(data, CostSelector.primary(), config.K_fqi, template,
                        mdp=fl8)
        assert np.array_equal(policy.actions, direct.actions)

    def test_grid_contains_a_feasible_point(self, fl8):
        config = exact_config()
        grid = regularization_grid(None, [np.array([v]) for v in
                                          np.arange(0.0, 5.5, 0.5)],
                                   config, mdp_handle=fl8)
        feasible = []
        for lam, policy, c_hat, g_hat in grid:
            _, g_exact = exact_policy_values(fl8, policy)
            feasible.append(g_exact[0] <= 0.1)
        assert any(feasible)

    def test_rerun_at_lambda_hat_is_consistent(self, fl8):
        config = exact_config()
        _, trace = run(None, config, mdp_handle=fl8)
        lam_hat = float(trace.lambdas[:, 0].mean())
        [(_, pi_tilde, c_hat, g_hat)] = regularization_grid(
            None, [np.array([lam_hat])], config, mdp_handle=fl8)
        solver = ExactSolver(fl8)
        c_til, g_til = solver.policy_values(pi_tilde)
        assert c_hat == pytest.approx(c_til, abs=1e-12)
        assert g_hat[0] == pytest.approx(g_til[0], abs=1e-12)


class TestDerandomize:
    def _mixture(self, c_hats, g_hats):
        members = [DeterministicPolicy([i]) for i in range(len(c_hats))]
        return MixturePolicy(members, np.ones(len(c_hats), dtype=int),
                             c_hats, [np.array([g]) for g in g_hats])

    def test_picks_best_feasible_member(self):
        mix = self._mixture([-0.5, -0.9, -0.2], [0.05, 0.5, 0.0])
        policy, idx = derandomize(mix, [0.1])
        assert idx == 0  # best C among the feasible members 0 and 2

    def test_falls_back_to_least_violating(self):
        mix = self._mixture([-0.5, -0.9], [0.4, 0.3])
        _, idx = derandomize(mix, [0.1])
        assert idx == 1


def reference_trace_csv(trace):
    """The trace file's bytes from a per-row writer: '%d' for the round and
    '%.17g' for each real."""
    dim, m = trace.lambdas.shape[1], trace.g_hat_member.shape[1]
    header = ",".join(["round", *(f"lambda_{i + 1}" for i in range(dim)),
                       "C_hat", *(f"G_{i + 1}" for i in range(m)),
                       "L_max", "L_min", "gap"])
    reals = np.column_stack([trace.lambdas, trace.c_hat_member,
                             trace.g_hat_member, trace.l_max, trace.l_min,
                             trace.gap])
    line = "%d" + ",%.17g" * reals.shape[1] + "\n"
    return (header + "\n" + "".join(
        line % (t, *row)
        for t, row in zip(trace.rounds.tolist(), reals.tolist()))).encode()


def synthetic_trace(rows, dim, m, seed):
    """A RunTrace of the given size whose reals mix wide-ranging random
    values with -0.0, 0.0, 5e-324 and 1/3; its first row holds -0.0, 5e-324
    and 1/3."""
    rng = np.random.default_rng(seed)
    width = dim + 1 + m + 3
    reals = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
        -300, 300, (rows, width))
    special = rng.random((rows, width)) < 0.2
    reals[special] = rng.choice([-0.0, 0.0, 5e-324, 1 / 3], special.sum())
    reals[0] = np.resize([-0.0, 5e-324, 1 / 3], width)
    return RunTrace(
        rounds=np.arange(1, rows + 1) * 3, lambdas=reals[:, :dim],
        c_hat_member=reals[:, dim], g_hat_member=reals[:, dim + 1:-3],
        c_hat_mix=reals[:, dim], g_hat_mix=reals[:, dim + 1:-3],
        l_max=reals[:, -3], l_min=reals[:, -2], l_mid=reals[:, -2],
        gap=reals[:, -1], converged=True, termination_reason="gap <= omega",
        total_rounds=3 * rows, stride=3)


class TestTraceCsv:
    def test_header_and_row_count(self, small_fitted, tmp_path):
        _, _, _, trace = small_fitted
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("round,lambda_1,lambda_2,C_hat,G_1,"
                            "L_max,L_min,gap")
        assert len(lines) == len(trace.rounds) + 1
        first = lines[1].split(",")
        assert int(first[0]) == trace.rounds[0]
        assert path.read_bytes() == reference_trace_csv(trace)

    def test_ogd_trace_bytes(self, fl8, tmp_path):
        _, trace = run(None, exact_config(dual_flavor=OGD_FLAVOR,
                                          max_rounds=50), mdp_handle=fl8)
        assert trace.lambdas.shape[1] == trace.g_hat_member.shape[1] == 1
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_text().startswith("round,lambda_1,C_hat,G_1,")
        assert path.read_bytes() == reference_trace_csv(trace)

    # 2**15 + 3 rows span two write chunks.
    @pytest.mark.parametrize("rows, dim, m", [(2**15 + 3, 2, 1), (7, 3, 2),
                                              (1, 1, 1)])
    def test_special_reals_and_long_traces_match_per_row_bytes(
            self, rows, dim, m, tmp_path):
        trace = synthetic_trace(rows, dim, m, seed=rows)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == reference_trace_csv(trace)
        text = path.read_text()
        assert len(text.splitlines()) == rows + 1
        first = text.splitlines()[1].split(",")
        assert {"-0", "4.9406564584124654e-324",
                "0.33333333333333331"} <= set(first[1:])


class TestDiscountRule:
    """The learner takes the map's gamma, which LearnerConfig.gamma must
    equal when given; without a map LearnerConfig.gamma is required."""

    @pytest.mark.parametrize("flavor", ["fitted", "lspi", "exact"])
    def test_config_gamma_other_than_the_maps_raises(self, flavor, fl8):
        data = None if flavor == "exact" else full_coverage_dataset(fl8)
        config = LearnerConfig(B=30.0, eta=50.0, omega=0.05, tau=[0.1],
                               subroutine_flavor=flavor, max_rounds=1,
                               gamma=0.5)
        with pytest.raises(ValueError, match="differs from the map's 0.95"):
            run(data, config, mdp_handle=fl8)
        with pytest.raises(ValueError, match="differs from the map's 0.95"):
            regularization_grid(data, [np.zeros(1)], config, mdp_handle=fl8)

    @pytest.mark.parametrize("flavor", ["fitted", "lspi"])
    def test_without_a_map_gamma_is_required(self, flavor):
        mdp = build_combination_lock(4)
        config = LearnerConfig(B=10.0, eta=1.0, omega=0.01, tau=[],
                               subroutine_flavor=flavor)
        with pytest.raises(ValueError, match="provide gamma"):
            run(full_coverage_dataset(mdp), config)


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LearnerConfig(B=0.0, eta=1.0, omega=0.1, tau=[0.1])
        with pytest.raises(ValueError):
            LearnerConfig(B=1.0, eta=1.0, omega=0.1, tau=[-0.1])
        with pytest.raises(ValueError):
            LearnerConfig(B=1.0, eta=1.0, omega=0.1, tau=[0.1],
                          dual_flavor="momentum")
        with pytest.raises(ValueError):
            LearnerConfig(B=1.0, eta=1.0, omega=0.1, tau=[0.1],
                          subroutine_flavor="deep")
        with pytest.raises(ValueError):
            LearnerConfig(B=1.0, eta=1.0, omega=0.1, tau=[0.1],
                          max_rounds=0)

    # NaN used to pass every check: --eta nan played 200 rounds to a NaN gap.
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["B", "eta", "omega", "tau"])
    def test_rejects_non_finite_numbers(self, field, value):
        given = dict(B=1.0, eta=1.0, omega=0.1, tau=[0.1, 0.2])
        given[field] = [0.1, value] if field == "tau" else value
        with pytest.raises(ValueError, match="finite"):
            LearnerConfig(**given)

    def test_exact_flavor_requires_mdp(self):
        config = exact_config()
        with pytest.raises(ValueError):
            run(None, config, mdp_handle=None)
