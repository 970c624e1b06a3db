"""Exact ground-truth computations on tabular MDPs: policy evaluation by
linear solve, value iteration, scalarized best responses, occupancy measures,
and a performance-difference identity check."""

import numpy as np

from .funcapprox import QFunction, greedy_actions
from .mdp import DeterministicPolicy, as_stochastic


def _policy_matrices(mdp, policy):
    """P^pi (S, S) and per-channel expected costs (S, 1+m) for a policy."""
    S, A = mdp.num_states, mdp.num_actions
    channels = np.concatenate([mdp.cost_c[:, :, None], mdp.cost_g], axis=2)
    if isinstance(policy, DeterministicPolicy):
        idx = np.arange(S)
        p_pi = mdp.transition[idx, policy.actions]
        cost_pi = channels[idx, policy.actions]
    else:
        probs = as_stochastic(policy, A)
        if probs.shape != (S, A):
            raise ValueError(f"policy table has shape {probs.shape}, "
                             f"expected ({S}, {A})")
        p_pi = np.einsum("xa,xay->xy", probs, mdp.transition)
        cost_pi = np.einsum("xa,xak->xk", probs, channels)
    return p_pi, cost_pi


def exact_state_values(mdp, policy):
    """Per-channel state values V (S, 1+m): channel 0 is c, then g_1..g_m."""
    S = mdp.num_states
    p_pi, cost_pi = _policy_matrices(mdp, policy)
    return np.linalg.solve(np.eye(S) - mdp.gamma * p_pi, cost_pi)


def exact_policy_values(mdp, policy):
    """Exact (C, G) of a policy from the initial distribution.

    Mixtures (objects with .members and .weights) evaluate to the
    weight-averaged member values.
    """
    if hasattr(policy, "members") and hasattr(policy, "weights"):
        C, G = 0.0, np.zeros(mdp.m)
        for w, member in zip(policy.weights, policy.members):
            c_i, g_i = exact_policy_values(mdp, member)
            C += w * c_i
            G += w * g_i
        return float(C), G
    v = exact_state_values(mdp, policy)
    vals = mdp.initial_dist @ v
    return float(vals[0]), vals[1:].copy()


def occupancy(mdp, policy):
    """Normalized discounted state-occupancy d_pi: d (I - gamma P^pi) = (1-gamma) chi."""
    S = mdp.num_states
    p_pi, _ = _policy_matrices(mdp, policy)
    return np.linalg.solve((np.eye(S) - mdp.gamma * p_pi).T,
                           (1.0 - mdp.gamma) * mdp.initial_dist)


def value_iteration(mdp, cost, tol=1e-10, max_iters=1_000_000):
    """Iterate the Bellman optimality backup on a scalarized (S, A) cost
    until the sup-norm change drops below tol; returns a tabular QFunction."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    cost = np.asarray(cost, dtype=float)
    S, A = mdp.num_states, mdp.num_actions
    if cost.shape != (S, A):
        raise ValueError("cost must have shape (S, A)")
    p_flat = mdp.transition.reshape(S * A, S)
    q = np.zeros((S, A))
    for _ in range(max_iters):
        v = q.min(axis=1)
        q_new = cost + mdp.gamma * (p_flat @ v).reshape(S, A)
        change = np.max(np.abs(q_new - q))
        q = q_new
        if change < tol:
            break
    return QFunction(table=q)


class ExactSolver:
    """Exact best responses and policy values with per-policy caching.

    For a fixed deterministic policy the scalarized Q-function of
    c + lam.g is linear in lam: Q_lam = Q_c + sum_i lam_i Q_{g_i}. Caching
    the per-channel Q of each policy makes Howard policy iteration across
    many nearby multipliers cheap (each step is an (S, A) array combine).
    """

    def __init__(self, mdp):
        self.mdp = mdp
        S = mdp.num_states
        self._channels = np.concatenate([mdp.cost_c[:, :, None], mdp.cost_g], axis=2)
        self._p_flat = mdp.transition.reshape(S * mdp.num_actions, S)
        self._q_cache = {}
        self._last_pi = np.zeros(S, dtype=np.int64)

    def policy_channel_q(self, actions):
        """Per-channel Q^pi with shape (S, A, 1+m), cached by policy."""
        key = actions.tobytes()
        cached = self._q_cache.get(key)
        if cached is not None:
            return cached
        mdp = self.mdp
        S, A = mdp.num_states, mdp.num_actions
        v = exact_state_values(mdp, DeterministicPolicy(actions))
        q = self._channels + mdp.gamma * (self._p_flat @ v).reshape(S, A, -1)
        self._q_cache[key] = q
        return q

    def scalarized_q(self, actions, lam):
        q = self.policy_channel_q(actions)
        return q[:, :, 0] + q[:, :, 1:] @ np.asarray(lam, dtype=float)

    def best_response(self, lam):
        """Optimal deterministic policy for cost c + lam.g (lam length m).

        Howard policy iteration, warm-started from the previous answer. A
        state switches only to an action better by more than the tie
        tolerance of greedy_actions, and the result is the greedy policy of
        the exact optimal Q under that rule.
        """
        mdp = self.mdp
        S = mdp.num_states
        pi = self._last_pi
        idx = np.arange(S)
        for _ in range(S * mdp.num_actions + 10):
            q = self.scalarized_q(pi, lam)
            greedy, tol = greedy_actions(q)
            improve = q[idx, pi] > q[idx, greedy] + tol[:, 0]
            if not improve.any():
                self._last_pi = greedy
                return DeterministicPolicy(greedy)
            pi = np.where(improve, greedy, pi)
        raise RuntimeError("policy iteration failed to converge")

    def policy_values(self, policy):
        """(C, G) of a deterministic policy from the initial distribution."""
        q = self.policy_channel_q(policy.actions)
        idx = np.arange(self.mdp.num_states)
        v = q[idx, policy.actions]
        vals = self.mdp.initial_dist @ v
        return float(vals[0]), vals[1:].copy()


def performance_difference_check(mdp, policy):
    """Residual of the performance-difference identity
    (C^pi - C*) = 1/(1-gamma) * E_{x~d_pi}[Q*(x, pi(x)) - V*(x)]."""
    solver = ExactSolver(mdp)
    pi_star = solver.best_response(np.zeros(mdp.m))
    q_star = solver.policy_channel_q(pi_star.actions)[:, :, 0]
    v_star = q_star.min(axis=1)
    c_star = float(mdp.initial_dist @ v_star)
    c_pi, _ = exact_policy_values(mdp, policy)
    d_pi = occupancy(mdp, policy)
    probs = as_stochastic(policy, mdp.num_actions)
    q_under_pi = np.einsum("xa,xa->x", probs, q_star)
    advantage = float(d_pi @ (q_under_pi - v_star))
    return abs((c_pi - c_star) - advantage / (1.0 - mdp.gamma))


def exact_constrained_optimum(mdp, tau, B, eta, omega, max_rounds=None):
    """Constrained optimum via the primal-dual loop with exact subroutines.

    Returns (C*, mixture). Raises ConvergenceError (with the partial mixture
    attached) if the duality gap does not reach omega within the round cap.
    """
    from .learner import LearnerConfig, run

    config = LearnerConfig(B=B, eta=eta, omega=omega,
                           tau=np.atleast_1d(np.asarray(tau, dtype=float)),
                           subroutine_flavor="exact", max_rounds=max_rounds)
    mixture, trace = run(None, config, mdp_handle=mdp)
    if not trace.converged:
        from .learner import ConvergenceError
        raise ConvergenceError("duality gap did not reach omega within the "
                               "round cap", mixture=mixture, trace=trace)
    c_star, _ = exact_policy_values(mdp, mixture)
    return c_star, mixture
