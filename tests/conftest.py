import numpy as np
import pytest

from cbpl import (FROZENLAKE_8X8, build_frozenlake, collect,
                  make_frozenlake_behavior)
from cbpl.learner import LearnerConfig, run
from cbpl.mdp import TabularMdp

FROZENLAKE_4X4 = (
    "SFFF",
    "FHFH",
    "FFFH",
    "HFFG",
)


def one_state_mdp(terminal=False, cost=0.0, gamma=0.9):
    """Single absorbing state; optionally marked terminal (then cost must be 0)."""
    transition = np.ones((1, 1, 1))
    cost_c = np.array([[cost]])
    cost_g = np.zeros((1, 1, 0))
    return TabularMdp(transition, cost_c, cost_g, gamma, np.ones(1),
                      terminal_states={0} if terminal else ())


def two_state_chain(gamma=0.5):
    """State 0 costs 1 and moves to absorbing terminal state 1."""
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 1] = 1.0
    transition[1, 0, 1] = 1.0
    cost_c = np.array([[1.0], [0.0]])
    cost_g = np.zeros((2, 1, 0))
    return TabularMdp(transition, cost_c, cost_g, gamma, np.array([1.0, 0.0]),
                      terminal_states={1})


def assert_same_dataset(d1, d2):
    """Every column of the two datasets has the same shape and values."""
    for name in ("traj_id", "t", "x", "a", "x_next", "c", "g", "done",
                 "behavior_prob"):
        np.testing.assert_array_equal(getattr(d1, name), getattr(d2, name),
                                      err_msg=name)


def mc_policy_values(mdp, policy_probs, num_traj, horizon, rng):
    """Vectorized Monte Carlo rollouts; returns per-trajectory (C, G) sums."""
    states = np.searchsorted(np.cumsum(mdp.initial_dist),
                             rng.random(num_traj), side="right")
    states = np.minimum(states, mdp.num_states - 1)
    alive = ~mdp.terminal_mask[states]
    C = np.zeros(num_traj)
    G = np.zeros((num_traj, mdp.m))
    cum_t = np.cumsum(mdp.transition, axis=2)
    disc = 1.0
    for _ in range(horizon):
        idx = np.flatnonzero(alive)
        if len(idx) == 0:
            break
        x = states[idx]
        cum_p = np.cumsum(policy_probs[x], axis=1)
        a = (cum_p < rng.random((len(idx), 1))).sum(axis=1)
        a = np.minimum(a, mdp.num_actions - 1)
        nx = (cum_t[x, a] < rng.random((len(idx), 1))).sum(axis=1)
        nx = np.minimum(nx, mdp.num_states - 1)
        C[idx] += disc * mdp.cost_c[x, a]
        G[idx] += disc * mdp.cost_g[x, a]
        states[idx] = nx
        alive[idx] = ~mdp.terminal_mask[nx]
        disc *= mdp.gamma
    return C, G


@pytest.fixture(scope="session")
def fl8():
    return build_frozenlake(FROZENLAKE_8X8)


@pytest.fixture(scope="session")
def fl8_behavior(fl8):
    return make_frozenlake_behavior(fl8, 0.95)


def collect_fl8(fl8, fl8_behavior, seed, trajs=5000, horizon=200):
    rng = np.random.default_rng(seed)
    return collect(fl8, fl8_behavior, trajs, horizon, rng)


@pytest.fixture(scope="session")
def fl8_dataset(fl8, fl8_behavior):
    """The seed-1 full-size behavior dataset, shared across suites."""
    return collect_fl8(fl8, fl8_behavior, 1)


@pytest.fixture(scope="session")
def fitted_runs(fl8, fl8_behavior, fl8_dataset):
    """Fitted-flavor constrained runs on the default 5-seed set.

    Returns {seed: (dataset, mixture, trace, elapsed_seconds)}.
    """
    import time
    out = {}
    for seed in range(1, 6):
        data = fl8_dataset if seed == 1 else collect_fl8(fl8, fl8_behavior, seed)
        config = LearnerConfig(B=30.0, eta=50.0, omega=0.05, tau=[0.1],
                               subroutine_flavor="fitted", max_rounds=100,
                               seed=seed)
        t0 = time.perf_counter()
        mixture, trace = run(data, config, mdp_handle=fl8)
        out[seed] = (data, mixture, trace, time.perf_counter() - t0)
    return out
