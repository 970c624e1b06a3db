"""End-to-end acceptance suite: convergence guarantees, constraint
satisfaction, oracle equivalences, online-learning invariants, and the
FrozenLake estimator-comparison protocol, each with explicit tolerances and
runtime budgets."""

import math
import time

import numpy as np
import pytest

from cbpl.batchrl import CostSelector, fqe, fqi, lspi, lspi_policy, lstdq
from cbpl.dataset import collect, full_coverage_dataset, make_frozenlake_behavior
from cbpl.funcapprox import QFunction, one_hot_features
from cbpl.learner import (LearnerConfig, derandomize,
                          exact_constrained_optimum, regularization_grid,
                          run)
from cbpl.mdp import (DeterministicPolicy, StochasticPolicy,
                      build_combination_lock, build_frozenlake,
                      build_random_mdp)
from cbpl.onlineopt import eg_init, eg_regret_bound, eg_update
from cbpl.ope import (OpeConfig, doubly_robust, ope_comparison, pdis)
from cbpl.oracle import (ExactSolver, exact_policy_values,
                         performance_difference_check, value_iteration)

from conftest import FROZENLAKE_4X4

B = 30.0
OMEGA = 0.05
TAU = 0.1
# Per-round dual losses are bounded by the largest per-step cost over 1-gamma.
G_BAR = 1.0 / (1.0 - 0.95)


@pytest.fixture(scope="module")
def tuned_exact_run(fl8):
    """Exact-flavor run at the step size and round cap implied by the
    average-regret bound."""
    eta = OMEGA / (4 * G_BAR ** 2 * B)
    cap = math.ceil(16 * B ** 2 * G_BAR ** 2 * math.log(2) / OMEGA ** 2)
    config = LearnerConfig(B=B, eta=eta, omega=OMEGA, tau=[TAU],
                           subroutine_flavor="exact", max_rounds=cap)
    t0 = time.monotonic()
    mixture, trace = run(None, config, mdp_handle=fl8)
    elapsed = time.monotonic() - t0
    return eta, cap, mixture, trace, elapsed


@pytest.fixture(scope="module")
def constrained_optimum(fl8):
    c_star, _ = exact_constrained_optimum(fl8, [TAU], B, 50.0, OMEGA)
    return c_star


@pytest.fixture(scope="module")
def ope_protocol(fl8):
    """The estimator-comparison protocol: a moderately greedy behavior
    policy (so the data actually reaches the goal), ten subsampling
    fractions, thirty trials."""
    behavior = make_frozenlake_behavior(fl8, 0.5)
    data = collect(fl8, behavior, 5000, 200, np.random.default_rng(1))
    policy = ExactSolver(fl8).best_response(np.array([1e6]))
    fractions = [round(0.1 * k, 1) for k in range(1, 11)]
    t0 = time.monotonic()
    rows = ope_comparison(data, policy, fl8, fractions, 30,
                          OpeConfig(fqe_iters=100, seed=0))
    elapsed = time.monotonic() - t0
    return data, policy, rows, elapsed


def test_01_exact_flavor_gap_obeys_tuned_regret_bound(tuned_exact_run):
    eta, cap, _, trace, elapsed = tuned_exact_run
    assert trace.converged
    assert trace.total_rounds <= cap
    assert trace.gap[-1] <= OMEGA
    bounds = 2 * (B * math.log(2) / (eta * trace.rounds)
                  + eta * B * G_BAR ** 2)
    assert np.all(trace.gap <= bounds + 1e-9)
    assert elapsed < 60.0


def test_02_fitted_mixture_satisfies_exact_constraint(fl8, fitted_runs):
    slack_bound = TAU + 2 * (G_BAR + OMEGA) / B
    total_elapsed = 0.0
    for seed, (_, mixture, trace, elapsed) in fitted_runs.items():
        assert trace.converged, f"seed {seed} did not converge"
        _, g = exact_policy_values(fl8, mixture)
        assert g[0] <= slack_bound
        assert g[0] <= TAU + 0.01
        total_elapsed += elapsed
    per_seed = {seed: round(entry[3], 1) for seed, entry in fitted_runs.items()}
    assert total_elapsed < 300.0, f"per-seed elapsed seconds: {per_seed}"


def test_03_fitted_mixture_objective_near_constrained_optimum(
        fl8, fitted_runs, constrained_optimum):
    for seed, (_, mixture, _, _) in fitted_runs.items():
        c, _ = exact_policy_values(fl8, mixture)
        assert c <= constrained_optimum + OMEGA + 0.05, f"seed {seed}"


def test_04_fqe_matches_exact_values_on_random_mdps():
    gamma, c_bar = 0.9, 1.0
    tol = 0.02 * c_bar / (1 - gamma)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        S = int(rng.integers(3, 11))
        A = int(rng.integers(2, 4))
        mdp = build_random_mdp(S, A, 0, seed, gamma=gamma)
        behavior = StochasticPolicy(np.full((S, A), 1.0 / A))
        data = collect(mdp, behavior, 500, 100, rng)  # 50000 transitions
        assert len(data) == 50_000
        policy = DeterministicPolicy(rng.integers(0, A, S))
        est, _ = fqe(data, policy, CostSelector.primary(), 200,
                     QFunction.tabular_zeros(S, A), mdp=mdp)
        exact_c, _ = exact_policy_values(mdp, policy)
        assert abs(est - exact_c) <= tol, f"seed {seed}"


@pytest.mark.parametrize("K", [1, 5, 20])
def test_04_fqe_contracts_at_rate_gamma_per_iteration(K):
    for mdp in (build_frozenlake(FROZENLAKE_4X4), build_combination_lock(5)):
        policy = DeterministicPolicy(
            np.argmin(value_iteration(mdp, mdp.cost_c).table, axis=1))
        q_pi = ExactSolver(mdp).policy_channel_q(policy.actions)[:, :, 0]
        data = full_coverage_dataset(mdp)
        _, run_info = fqe(data, policy, CostSelector.primary(), K,
                          QFunction.tabular_zeros(mdp.num_states,
                                                  mdp.num_actions), mdp=mdp)
        err = np.abs(run_info.q_final.values() - q_pi).max()
        assert err <= mdp.gamma ** K * np.abs(q_pi).max() + 1e-10


def test_05_fqi_recovers_value_iteration_policy(fl8):
    problems = [fl8] + [build_combination_lock(n) for n in range(3, 7)]
    for mdp in problems:
        data = full_coverage_dataset(mdp)
        policy, _ = fqi(data, CostSelector.primary(), 100,
                        QFunction.tabular_zeros(mdp.num_states,
                                                mdp.num_actions), mdp=mdp)
        vi_policy = np.argmin(
            value_iteration(mdp, mdp.cost_c, tol=1e-13).table, axis=1)
        assert np.array_equal(policy.actions, vi_policy)


@pytest.mark.parametrize("K", [1, 5, 20])
def test_05_fqi_contracts_at_rate_gamma_per_iteration(K):
    for mdp in (build_frozenlake(FROZENLAKE_4X4), build_combination_lock(5)):
        q_star = value_iteration(mdp, mdp.cost_c, tol=1e-13).table
        data = full_coverage_dataset(mdp)
        _, run_info = fqi(data, CostSelector.primary(), K,
                          QFunction.tabular_zeros(mdp.num_states,
                                                  mdp.num_actions), mdp=mdp)
        err = np.abs(run_info.q_final.values() - q_star).max()
        assert err <= mdp.gamma ** K * np.abs(q_star).max() + 1e-10


def test_06_lstdq_equals_exact_evaluation_and_lspi_matches_vi(fl8):
    mdp = build_frozenlake(FROZENLAKE_4X4)
    data = full_coverage_dataset(mdp)
    feats = one_hot_features(mdp)
    policy = DeterministicPolicy(
        np.argmin(value_iteration(mdp, mdp.cost_c).table, axis=1))
    w_in = ExactSolver(mdp).policy_channel_q(policy.actions)[:, :, 0].ravel()
    w_out = lstdq(data, w_in, CostSelector.primary(), feats, mdp.gamma,
                  ridge=1e-10)
    q_exact = ExactSolver(mdp).policy_channel_q(policy.actions)[:, :, 0]
    assert np.abs(w_out.reshape(16, 4) - q_exact).max() <= 1e-8

    data8 = full_coverage_dataset(fl8)
    feats8 = one_hot_features(fl8)
    result = lspi(data8, CostSelector.primary(), feats8, fl8.gamma)
    assert result.converged
    vi_policy = np.argmin(value_iteration(fl8, fl8.cost_c, tol=1e-13).table,
                          axis=1)
    assert np.array_equal(lspi_policy(result.weights, feats8).actions,
                          vi_policy)


def test_07_eg_preserves_l1_mass_and_stays_below_regret_bound():
    rng = np.random.default_rng(0)
    lam = eg_init(2, 7.3)
    for _ in range(10_000):
        lam = eg_update(lam, rng.uniform(-1, 1, 3), 0.1)
        assert abs(lam.coords.sum() - 7.3) <= 1e-9

    T, eta = 2000, 0.05
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
        avg_regret = (B * totals.max() - gained) / T
        assert avg_regret <= eg_regret_bound(B, eta, 1.0, T, m=1)


def test_08_frozenlake_estimator_comparison(fl8, ope_protocol):
    data, policy, rows, elapsed = ope_protocol
    assert elapsed < 600.0

    def median_err(method, fraction):
        errs = [r[4] for r in rows if r[0] == method and r[1] == fraction]
        assert len(errs) == 30
        return float(np.median(errs))

    assert median_err("fqe", 1.0) <= 0.02
    assert median_err("fqe", 1.0) <= median_err("pdis", 1.0)

    # Zero control variates reduce the doubly robust estimator to PDIS.
    zero_q = QFunction.tabular_zeros(64, 4)
    dr = doubly_robust(data, policy, zero_q, fl8.gamma)
    assert dr == pytest.approx(pdis(data, policy, fl8.gamma), abs=1e-12)

    # Exact control variates on deterministic on-policy data leave nothing
    # for the correction terms, so the estimate has zero variance.
    lock = build_combination_lock(4, gamma=0.9)
    forward = DeterministicPolicy(np.ones(4, dtype=np.int64))
    on_policy = StochasticPolicy(np.column_stack([np.zeros(4), np.ones(4)]))
    q_exact = QFunction(
        table=ExactSolver(lock).policy_channel_q(forward.actions)[:, :, 0])
    estimates = [doubly_robust(collect(lock, on_policy, 20, 10,
                                       np.random.default_rng(seed)),
                               forward, q_exact, lock.gamma)
                 for seed in range(5)]
    assert np.ptp(estimates) == 0.0


def test_09_performance_difference_identity_and_sandwich(tuned_exact_run):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        S = int(rng.integers(2, 11))
        A = int(rng.integers(2, 5))
        mdp = build_random_mdp(S, A, 1, seed, gamma=0.9)
        policy = DeterministicPolicy(rng.integers(0, A, S))
        assert performance_difference_check(mdp, policy) <= 1e-8

    _, _, _, trace, _ = tuned_exact_run
    assert np.all(trace.l_max >= trace.l_mid - 1e-9)
    assert np.all(trace.l_mid >= trace.l_min - 1e-9)


def test_10_multiplier_grid_reproduces_best_member_values(fl8, fitted_runs):
    data, mixture, trace, _ = fitted_runs[1]
    best_policy, _ = derandomize(mixture, [TAU])
    c_best, g_best = exact_policy_values(fl8, best_policy)

    lam_hat = float(trace.lambdas[:, 0].mean())
    lams = sorted(set(np.arange(0.0, 5.5, 0.5)) | {lam_hat})
    config = LearnerConfig(B=B, eta=50.0, omega=OMEGA, tau=[TAU],
                           subroutine_flavor="fitted", seed=1)
    grid = regularization_grid(data, [np.array([v]) for v in lams], config,
                               mdp_handle=fl8)
    gaps = []
    for lam, policy, _, _ in grid:
        c, g = exact_policy_values(fl8, policy)
        gaps.append(max(abs(c - c_best), abs(g[0] - g_best[0])))
    assert min(gaps) <= 0.02
