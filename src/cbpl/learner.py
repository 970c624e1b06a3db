"""The constrained learner: a primal-dual game between a best-response
policy player and a no-regret dual player, with duality-gap termination.

Subroutine flavors: fitted (FQI best response + FQE certification), lspi
and exact. The lspi flavor is policy iteration and exact policy evaluation
on the dataset's empirical MDP (EmpiricalModel.to_mdp), which is what
tabular LSPI and LSTDQ with one-hot features compute without a ridge;
`cbpl lspi` runs the same solver. Every tabular solver breaks value ties
by the one rule of funcapprox.greedy_actions, so exact ties go to the same
action in all flavors; iterative ridge LSPI (batchrl.lspi) can split them.
The exact flavor runs the same tabular oracles on the true MDP. Member
policies repeat across rounds extremely often, so mixtures store unique
policies with multiplicities and every evaluation is cached by policy.

When the exact or lspi flavor (an exact solver, of the true or the
empirical MDP) runs with a single constraint and EG duals, long
stretches of rounds change nothing but the multiplier; those stretches are
advanced in closed-form blocks (valid because best-response regions are
intervals on the 1-d multiplier line, so endpoint checks certify the whole
block). Block lengths follow the certified stretch: a run's first block
tries 2^20 rounds, each certified block doubles the length up to 2^25, and
a failed certificate halves it, down to one round. A block is evaluated on
a grid of every 8,192th round and wherever the first round with
gap <= omega may lie; its trace rows are computed once, when the run ends,
at the rounds the final trace stride keeps.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .batchrl import CostSelector, EmpiricalModel, _resolve_gamma, fqe, fqi
from .dataset import implied_shape, write_csv
from .funcapprox import QFunction
from .mdp import DeterministicPolicy
from .onlineopt import (DualVector, EG_FLAVOR, OGD_FLAVOR, augmented_loss,
                        eg_init, eg_update, ogd_init, ogd_update)
from .oracle import ExactSolver, exact_policy_values


class ConvergenceError(RuntimeError):
    """Raised when the duality gap never reaches omega; carries partial results."""

    def __init__(self, message, mixture=None, trace=None):
        super().__init__(message)
        self.mixture = mixture
        self.trace = trace


@dataclass
class LearnerConfig:
    B: float
    eta: float
    omega: float
    tau: np.ndarray
    K_fqi: int = 100
    K_fqe: int = 100
    max_rounds: int = None
    # Not read: the learner draws no random numbers. Kept for the callers
    # that pass it, the benchmark's workloads among them.
    seed: int = 0
    dual_flavor: str = EG_FLAVOR
    subroutine_flavor: str = "fitted"
    gamma: float = None

    def __post_init__(self):
        self.tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if not all(0 < v < math.inf for v in (self.B, self.eta, self.omega)):
            raise ValueError("B, eta, omega must be positive and finite")
        if not np.all((self.tau >= 0) & (self.tau < math.inf)):  # NaN fails
            raise ValueError("tau entries must be nonnegative and finite")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.dual_flavor not in (EG_FLAVOR, OGD_FLAVOR):
            raise ValueError(f"unknown dual flavor {self.dual_flavor!r}")
        if self.subroutine_flavor not in ("fitted", "lspi", "exact"):
            raise ValueError(f"unknown subroutine flavor {self.subroutine_flavor!r}")


class MixturePolicy:
    """Uniform mixture over best-response policies.

    One member per distinct policy, in the order the policies first
    appear, with the number of rounds that played it as its count. weights
    are counts / total rounds; member value estimates align with members.
    """

    def __init__(self, members, counts, member_c_hat, member_g_hat):
        self.members = list(members)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.member_c_hat = [float(v) for v in member_c_hat]
        self.member_g_hat = [np.asarray(v, dtype=float) for v in member_g_hat]
        if not (len(self.members) == len(self.counts)
                == len(self.member_c_hat) == len(self.member_g_hat)):
            raise ValueError("misaligned mixture components")

    @property
    def weights(self):
        return self.counts / self.counts.sum()


@dataclass
class RunTrace:
    rounds: np.ndarray
    lambdas: np.ndarray
    c_hat_member: np.ndarray
    g_hat_member: np.ndarray
    c_hat_mix: np.ndarray
    g_hat_mix: np.ndarray
    l_max: np.ndarray
    l_min: np.ndarray
    l_mid: np.ndarray
    gap: np.ndarray
    converged: bool
    termination_reason: str
    total_rounds: int
    stride: int
    # Rounds advanced in closed-form blocks and one at a time; they sum to
    # total_rounds.
    block_rounds: int = 0
    generic_rounds: int = 0


def _holds_multiple(piece, stride):
    """Whether a deferred block's rounds t0+1..t_end hold a multiple of stride."""
    t0, t_end, _ = piece
    return t_end // stride != t0 // stride


class _TraceBuffer:
    """Per-round records with automatic decimation beyond a record cap.

    Keeps every stride-th round (stride doubles on overflow) plus the final
    round, so small runs retain full fidelity. Rounds arrive in order from
    1 with none skipped, so the kept rounds are exactly the multiples of
    the stride up to the last round, and the stride is a function of the
    last round alone. Rows live in one float matrix of limit + 1 slots:
    slot k holds the latest round recorded in (k stride, (k + 1) stride],
    so a multiple of the stride is the last round to write its slot, and the
    slot after the last multiple holds the last round. A row given one at a
    time (append) is written to its slot; when the stride grows f-fold, slot
    k takes old slot (k + 1) f - 1, for the slots up to the last appended
    round. A closed-form block instead registers its rounds with a function
    of the block index that returns their rows (defer); finalize evaluates
    it once, into the slots of the final stride's kept rounds, and cuts the
    matrix to those slots. A block that holds no multiple of the stride and
    not the last round is dropped, so at most limit + 1 blocks are held.
    """

    CHUNK = 1 << 12  # the rows finalize asks of a deferred block at once

    def __init__(self, limit):
        self.limit = limit
        self.stride = 1
        self.t_last = 0
        self.t_appended = 0  # the last round given to append
        self.mat = None  # (limit + 1, row width), allocated by the first row
        self.pieces = []  # (t0, t_end, rows_at) of each deferred block

    def stride_for(self, t_last):
        """The stride once every round up to t_last is recorded: the
        smallest doubling of the current one that keeps at most `limit`
        multiples of it in 1..t_last."""
        stride = self.stride
        while t_last // stride > self.limit:
            stride *= 2
        return stride

    def _advance(self, t_last):
        """Move the last round to t_last, carrying the appended rows to the
        slots of the stride that round needs."""
        stride = self.stride_for(t_last)
        if stride != self.stride:
            f, n = stride // self.stride, self.t_appended // stride
            if n:
                self.mat[:n] = self.mat[f - 1:n * f:f]
            self.pieces = [p for p in self.pieces if _holds_multiple(p, stride)]
        self.stride, self.t_last = stride, t_last

    def append(self, t, row):
        if self.mat is None:
            self.mat = np.empty((self.limit + 1, len(row)))
        self._advance(t)
        self.mat[(t - 1) // self.stride] = row
        self.t_appended = t

    def defer(self, t0, t_end, rows_at):
        """Record the rounds t0+1..t_end of a block whose rows, at an array
        of block indices j (round t0+1+j), are rows_at(j)."""
        self._advance(t_end)
        if self.pieces and not _holds_multiple(self.pieces[-1], self.stride):
            self.pieces.pop()  # it no longer holds the last round either
        self.pieces.append((t0, t_end, rows_at))

    def finalize(self):
        """(rounds, rows) of the kept rounds: the multiples of the final
        stride, then the last round. The rows are the matrix, cut in place
        to them, so a kept trace holds no unused slot."""
        stride, t_last = self.stride, self.t_last
        ts = np.arange(stride, t_last + 1, stride, dtype=np.int64)
        if t_last % stride:
            ts = np.append(ts, t_last)
        for t0, t_end, rows_at in self.pieces:
            k = t0 // stride  # the slot of the first kept round
            j = np.arange((k + 1) * stride - t0 - 1, t_end - t0, stride,
                          dtype=float)
            if t_end == t_last and t_last % stride:
                j = np.append(j, t_end - t0 - 1.0)
            # In chunks, so a long block's temporaries stay small.
            for lo in range(0, len(j), self.CHUNK):
                rows = rows_at(j[lo:lo + self.CHUNK])
                if self.mat is None:
                    self.mat = np.empty((self.limit + 1, rows.shape[1]))
                self.mat[k + lo:k + lo + len(rows)] = rows
        # No view of mat outlives _advance (its slices are temporaries), so
        # nothing else sees the cut. refcheck=False: under a trace or profile
        # hook (cProfile, debuggers, coverage) the reference count is higher.
        self.mat.resize((len(ts), self.mat.shape[1]), refcheck=False)
        return ts, self.mat


class _ExactSub:
    """Exact best responses and values on a tabular MDP.

    On a dataset's empirical MDP (sink=True) the last state is the sink,
    which member policies do not carry: best responses drop its action and
    evaluation puts back action 0, the one policy iteration picks there.
    """

    def __init__(self, mdp, sink=False):
        self.solver = ExactSolver(mdp)
        self.sink = sink

    def best_response(self, lam_m):
        policy = self.solver.best_response(lam_m)
        if self.sink:
            return DeterministicPolicy(policy.actions[:-1])
        return policy

    def evaluate(self, policy):
        if self.sink:
            policy = DeterministicPolicy(np.append(policy.actions, 0))
        return self.solver.policy_values(policy)


class _FittedSub:
    def __init__(self, dataset, mdp, config, num_states, num_actions, gamma):
        # FQI and FQE sweep the deduplicated rows; built once per subroutine.
        self.model = EmpiricalModel.from_dataset(dataset)
        self.mdp = mdp
        self.config = config
        self.template = QFunction.tabular_zeros(num_states, num_actions)
        self.gamma = gamma
        self._eval_cache = {}

    def best_response(self, lam_m):
        cost = (CostSelector.scalarized(lam_m) if len(lam_m)
                else CostSelector.primary())
        return fqi(self.model, cost, self.config.K_fqi, self.template,
                   gamma=self.gamma, mdp=self.mdp)[0]

    def evaluate(self, policy):
        key = policy.actions.tobytes()
        cached = self._eval_cache.get(key)
        if cached is not None:
            return cached
        costs = [CostSelector.primary()] + [
            CostSelector.constraint(i) for i in range(self.model.m)]
        c_hat, *g_hat = [fqe(self.model, policy, cost, self.config.K_fqe,
                             self.template, gamma=self.gamma, mdp=self.mdp)[0]
                         for cost in costs]
        self._eval_cache[key] = c_hat, np.array(g_hat)
        return self._eval_cache[key]


def lagrangian_max(c_hat, g_hat, tau, B, flavor=EG_FLAVOR):
    """max of C + lam.(G - tau) over the dual player's multiplier set.

    EG: the l1-budget simplex with a slack coordinate, closed form
    C + B * max(0, max_i(G_i - tau_i)). OGD: the nonnegative part of the l2
    ball of radius B, closed form C + B * ||(G - tau)_+||_2.
    """
    diff = np.asarray(g_hat, dtype=float) - np.asarray(tau, dtype=float)
    excess = np.maximum(diff, 0.0)
    if flavor == OGD_FLAVOR:
        worst = float(np.linalg.norm(excess))
    else:
        worst = float(np.max(excess, initial=0.0))
    return float(c_hat) + float(B) * worst


def _make_subroutine(dataset, config, mdp_handle):
    if config.subroutine_flavor == "exact" and mdp_handle is None:
        raise ValueError("exact flavor requires an mdp handle")
    gamma = _resolve_gamma(config.gamma, mdp_handle)
    if config.subroutine_flavor == "exact":
        return _ExactSub(mdp_handle)
    if dataset is None or len(dataset) == 0:
        raise ValueError("fitted flavors require a nonempty dataset")
    S, A = (implied_shape(dataset) if mdp_handle is None
            else (mdp_handle.num_states, mdp_handle.num_actions))
    if config.subroutine_flavor == "fitted":
        return _FittedSub(dataset, mdp_handle, config, S, A, gamma)
    chi = None if mdp_handle is None else mdp_handle.initial_dist
    model = EmpiricalModel.from_dataset(dataset)
    return _ExactSub(model.to_mdp(S, A, gamma, chi), sink=True)


def _default_g_bar(dataset, mdp_handle, config):
    gamma = _resolve_gamma(config.gamma, mdp_handle)
    if dataset is not None and len(dataset) and dataset.m:
        peak = float(np.abs(dataset.g).max())
    elif mdp_handle is not None and mdp_handle.m:
        peak = float(np.abs(mdp_handle.cost_g).max())
    else:
        peak = 0.0
    return peak / (1.0 - gamma)


def default_max_rounds(B, g_bar, omega, m):
    """Round cap 16 B^2 Gbar^2 log(m+1) / omega^2 from the convergence bound.
    Raises ValueError where that is not a finite number."""
    if m < 1 or g_bar <= 0:
        return 1000
    cap = 16.0 * B * B * g_bar * g_bar * math.log(m + 1) / (omega * omega)
    if not cap < math.inf:
        raise ValueError(f"the default round cap 16 B^2 Gbar^2 log(m+1) / "
                         f"omega^2 at B = {B:g} and omega = {omega:g} is not "
                         f"a finite number")
    return int(math.ceil(cap))


# Up to this |logit step| multiplier sums come from Euler-Maclaurin (within
# 3e-14 of math.fsum); beyond it they are summed until the multiplier is 0 or B.
_EM_MAX_STEP = 1e-2
_TRACE_LIMIT = 200_000  # trace rows kept before _TraceBuffer thins them
# A run's first closed-form block is _BLOCK_START rounds long; each certified
# block doubles the length, up to _BLOCK_CAP.
_BLOCK_START, _BLOCK_CAP = 1 << 20, 1 << 25
# Rounds between the points of a block's grid: at most 4,096 intervals per
# block, so a flagged interval is evaluated in at most 8,192 rounds.
_GRID_SPACING = 1 << 13


def _lambda_at(B, d0, de, j):
    """The multiplier B sigmoid(-(d0 + j de)) of round j of a steady EG
    stretch, elementwise over the array j."""
    d = j * de + d0
    ez = np.exp(-np.abs(d))
    return np.where(d >= 0, ez, 1.0) / (ez + 1.0) * B


def _softplus_drop(a, b, k):
    """softplus(-a) - softplus(-b) for b = a + k of a's sign, as log1p of
    (e^-a - e^-b) / (1 + e^-b) mirrored to a, b >= 0: no cancellation."""
    s = np.where((a > 0) | (b > 0), 1.0, -1.0)
    u, v, kk = s * a, s * b, s * k
    x = (np.sign(kk) * np.exp(-np.minimum(u, v)) * -np.expm1(-np.abs(kk))
         / (1.0 + np.exp(-v)))
    return np.log1p(x) + np.where(s < 0, k, 0.0)


def _lambda_sums(B, d0, de, J):
    """S(n) = sum of _lambda_at(j) over j < n, for arrays n in 0..J."""
    f0 = float(_lambda_at(B, d0, de, 0.0))
    if de == 0:
        return lambda n: n * f0
    if abs(de) > _EM_MAX_STEP:
        # From round p on the multiplier is exactly 0 (d > 750) or B (d < -40).
        edge, sat = (750.0, 0.0) if de > 0 else (-40.0, B)
        p = int(min(J, max(0, math.ceil((edge - d0) / de))))
        prefix = np.zeros(p + 1)
        np.cumsum(_lambda_at(B, d0, de, np.arange(p, dtype=float)),
                  out=prefix[1:])
        return lambda n: np.where(n <= p, prefix[np.minimum(n, p).astype(int)],
                                  prefix[p] + (n - p) * sat)

    def em(n):
        # Euler-Maclaurin over j in [0, n - 1] with f' = -de B h and
        # f''' = -de^3 B h (1 - 6h), where h = q (1 - q) and q = lambda / B.
        jn = np.maximum(n - 1.0, 0.0)
        k = jn * de
        dn = k + d0
        cross = (d0 < 0) != (dn < 0)  # split the integral at d = 0
        drop = _softplus_drop(d0, np.where(cross, 0.0, dn),
                              np.where(cross, -d0, k))
        if cross.any():
            drop += np.where(cross, _softplus_drop(0.0, dn, dn), 0.0)
        fn = _lambda_at(B, d0, de, jn)
        h0, hn = (q * (1 - q) for q in (f0 / B, fn / B))
        total = (B / de * drop + (f0 + fn) / 2 + B * de / 12 * (h0 - hn)
                 + B * de ** 3 / 720 * (hn * (1 - 6 * hn) - h0 * (1 - 6 * h0)))
        return np.where(n > 0, total, 0.0)
    return em


class _RunState:
    """Mutable accumulators shared by the generic loop and the block path."""

    def __init__(self, m, dim):
        self.t = 0
        self.sum_c = 0.0
        self.sum_g = np.zeros(m)
        self.sum_lam = np.zeros(dim)
        self.block_len = _BLOCK_START  # the next block advance's first try
        # A policy's action bytes -> [policy, count, C_hat, G_hat], in the
        # order the policies first appear.
        self.members = {}

    def add_member(self, policy, c_hat, g_hat, repeat=1):
        member = self.members.setdefault(policy.actions.tobytes(),
                                         [policy, 0, c_hat, g_hat])
        member[1] += repeat
        self.t += repeat
        self.sum_c += repeat * c_hat
        self.sum_g += repeat * g_hat


def run(dataset, config, mdp_handle=None):
    """Run the primal-dual game loop; returns (MixturePolicy, RunTrace)."""
    m = len(config.tau)
    solved, name = ((mdp_handle, "map") if config.subroutine_flavor == "exact"
                    else (dataset, "dataset"))
    if solved is not None and solved.m != m:
        raise ValueError(f"{name} constraint count does not match tau")
    sub = _make_subroutine(dataset, config, mdp_handle)
    g_bar = _default_g_bar(dataset, mdp_handle, config)
    max_rounds = (config.max_rounds if config.max_rounds is not None
                  else default_max_rounds(config.B, g_bar, config.omega, m))
    B, eta, omega, tau = config.B, config.eta, config.omega, config.tau
    # The multiplier sums add up to max_rounds multipliers of at most B each
    # (an int and a float compare exactly, so a huge cap cannot overflow).
    if max_rounds > sys.float_info.max / B:
        raise ValueError(f"B = {B:g} times the round cap {max_rounds} is not "
                         f"a finite number")
    is_eg = config.dual_flavor == EG_FLAVOR
    lam = eg_init(m, B) if is_eg else ogd_init(m, B)
    dim = len(lam.coords)

    state = _RunState(m, dim)
    trace_buf = _TraceBuffer(_TRACE_LIMIT)
    converged = False
    prev_sig = None
    steady_streak = 0
    # A failed block advance evaluated a block of every length down to one
    # round before the certificates rejected them all, so each failure
    # doubles the streak of repeated signatures the next advance waits for.
    min_streak = 2
    block_rounds = generic_rounds = 0

    while state.t < max_rounds:
        # Closed-form block advance for steady EG/m=1 stretches of a
        # subroutine that solves its MDP exactly (the exact and lspi flavors).
        if (steady_streak >= min_streak and is_eg and m == 1
                and isinstance(sub, _ExactSub)):
            t_before = state.t
            advanced, converged = _block_advance(
                state, sub, lam, prev_sig, config, trace_buf, max_rounds)
            if advanced is not None:
                block_rounds += state.t - t_before
                lam = advanced
                if converged:
                    break
                continue
            # The certificates failed: play one generic round.
            min_streak *= 2

        lam_m = lam.coords[:m]
        pi_t = sub.best_response(lam_m)
        c_t, g_t = sub.evaluate(pi_t)
        state.add_member(pi_t, c_t, g_t)
        generic_rounds += 1
        state.sum_lam += lam.coords
        t = state.t
        c_mix = state.sum_c / t
        g_mix = state.sum_g / t
        lam_hat = state.sum_lam / t
        pi_til = sub.best_response(lam_hat[:m])
        c_til, g_til = sub.evaluate(pi_til)
        l_max = lagrangian_max(c_mix, g_mix, tau, B, config.dual_flavor)
        l_min = c_til + float(lam_hat[:m] @ (g_til - tau))
        l_mid = c_mix + float(lam_hat[:m] @ (g_mix - tau))
        gap = l_max - l_min
        trace_buf.append(t, np.concatenate([lam.coords, [c_t], g_t, [c_mix],
                                            g_mix, [l_max, l_min, l_mid, gap]]))
        if gap <= omega:
            converged = True
            break

        sig = (pi_t.actions.tobytes(), pi_til.actions.tobytes(),
               c_t, tuple(g_t), c_til, tuple(g_til))
        steady_streak = steady_streak + 1 if sig == prev_sig else 1
        prev_sig = sig

        if is_eg:
            z = augmented_loss(g_t, tau)
            lam = eg_update(lam, -z, eta)
        else:
            lam = ogd_update(lam, g_t - tau, eta)

    ts, mat = trace_buf.finalize()
    # The row layout: lambda, C_t, G_t, C_mix, G_mix, L_max, L_min, L_mid, gap.
    lams, c_t, g_t, c_mix, g_mix, l_max, l_min, l_mid, gap = np.split(
        mat, np.cumsum([dim, 1, m, 1, m, 1, 1, 1]), axis=1)
    trace = RunTrace(
        rounds=ts, lambdas=lams, c_hat_member=c_t[:, 0], g_hat_member=g_t,
        c_hat_mix=c_mix[:, 0], g_hat_mix=g_mix, l_max=l_max[:, 0],
        l_min=l_min[:, 0], l_mid=l_mid[:, 0], gap=gap[:, 0],
        converged=converged,
        termination_reason="gap <= omega" if converged else "max_rounds reached",
        total_rounds=state.t, stride=trace_buf.stride,
        block_rounds=block_rounds, generic_rounds=generic_rounds)
    mixture = MixturePolicy(*zip(*state.members.values()))
    return mixture, trace


def _block_advance(state, sub, lam, prev_sig, config, trace_buf, max_rounds):
    """Advance a steady stretch of EG rounds in one closed-form block.

    The block tries state.block_len rounds (fewer at max_rounds) and halves
    its length on each failed certificate, down to one round. A certified
    block doubles state.block_len, up to _BLOCK_CAP. Returns (next_lam,
    converged), or (None, False) when a block of every length fails (caller
    falls back to a generic round).
    """
    J = min(state.block_len, max_rounds - state.t)
    while J:
        out = _closed_form_block(state, sub, lam, prev_sig, config,
                                 trace_buf, J)
        if out is not None:
            state.block_len = min(2 * J, _BLOCK_CAP)
            return out
        J //= 2
    return None, False


def _closed_form_block(state, sub, lam, prev_sig, config, trace_buf, J):
    """Advance at most J steady EG rounds in closed form.

    Returns (next_lam, converged), or None when the endpoint stability
    checks fail over the rounds the block would advance.

    Per-round values are closed forms in the block index j, evaluated on a
    grid: the block's ends and the rounds that are multiples of
    _GRID_SPACING. Between grid points the gap is bounded below, and only
    where the bound reaches omega is it evaluated round by round. Nothing
    reaches state or the trace until the certificates pass; the trace then
    gets the block's row function, which it evaluates at the rounds it keeps
    once the run ends.
    """
    B, eta, omega, tau = config.B, config.eta, config.omega, config.tau[0]
    pi_bytes, til_bytes = prev_sig[0], prev_sig[1]
    # The certified pi~ has til_bytes, and exact evaluations are cached by
    # policy, so its values are the ones the signature recorded.
    c_til, w_til = prev_sig[4], prev_sig[5][0] - tau
    pi_t = state.members[pi_bytes][0]
    c_t, g_t = sub.evaluate(pi_t)
    exponent = eta * augmented_loss(g_t, config.tau)  # per-round log-multiplier

    t0 = state.t

    # Single-column closed form for the two-coordinate simplex: the first
    # coordinate after j updates is B * sigmoid(-(d0 + j*de)) with logit gap
    # d = log(lam1/lam0) growing linearly.
    l0, l1 = np.log(np.maximum(lam.coords, 1e-300))
    d0, de = l1 - l0, exponent[1] - exponent[0]
    lam_sum = _lambda_sums(B, d0, de, J)
    sum_c, sum_g, sum_lam = state.sum_c, state.sum_g[0], state.sum_lam[0]

    def at(j):
        """lam, lam-hat, C_mix, G_mix, L_max, L_min, gap at rounds t0+1+j."""
        t = j + (t0 + 1)  # exact below 2^53
        lam_j = _lambda_at(B, d0, de, j)
        lam_hat = (lam_sum(j + 1) + sum_lam) / t
        c_mix = ((j + 1) * c_t + sum_c) / t
        g_mix = ((j + 1) * g_t[0] + sum_g) / t
        l_max = c_mix + np.maximum(0.0, g_mix - tau) * B
        l_min = lam_hat * w_til + c_til
        return lam_j, lam_hat, c_mix, g_mix, l_max, l_min, l_max - l_min

    # The grid: the round before the block, the block's ends, and the
    # rounds that are multiples of _GRID_SPACING.
    first = (t0 // _GRID_SPACING + 1) * _GRID_SPACING
    js = np.unique(np.concatenate([
        [-1.0, 0.0], np.arange(first - t0 - 1, J, _GRID_SPACING, dtype=float),
        [J - 1.0]]))
    lam_g, hat_g, c_g, g_g, lx_g, ln_g, _ = at(js)

    # Gap bound over the rounds (js[k], js[k + 1]]: C_mix, G_mix and lam are
    # monotone; lam-hat moves from its value at js[k] toward those lams.
    K, t_a = np.diff(js), js[:-1] + (t0 + 1)
    mass = hat_g[:-1] * t_a
    hat_ends = [(mass + K * v) / (t_a + K)
                for v in (np.minimum(lam_g[:-1], lam_g[1:]),
                          np.maximum(lam_g[:-1], lam_g[1:]))]
    l_min_hi = c_til + np.max([h * w_til for h in (hat_g[:-1], *hat_ends)],
                              axis=0)
    l_max_lo = (np.minimum(c_g[:-1], c_g[1:])
                + np.maximum(0.0, np.minimum(g_g[:-1], g_g[1:]) - tau) * B)
    margin = 1e-9 * (1.0 + np.abs(lx_g[1:]) + np.abs(ln_g[1:]))
    stop, converged = J, False
    for k in np.flatnonzero(l_max_lo - l_min_hi - margin <= omega):
        j = np.arange(js[k] + 1, js[k + 1] + 1)
        lam_j, *_, gap_j = at(j)
        hits = np.flatnonzero(gap_j <= omega)
        if len(hits):
            stop, converged = int(j[hits[0]]) + 1, True
            lam_stop = lam_j[hits[0]]
            break

    # Stability certificates: best responses constant over the multiplier
    # ranges of the rounds the block advances (regions are intervals, so
    # endpoints suffice). lam is monotone; lam-hat turns at most once, where
    # lam crosses it, so the rounds around that crossing join its range.
    if stop < J:  # the grid up to the last round advanced
        js = np.append(js[js < stop - 1], stop - 1.0)
        lam_g, hat_g = at(js)[:2]
    hats = hat_g[1:]
    above = lam_g[1:] >= hats
    for k in np.flatnonzero(above[1:] != above[:-1])[:1] + 1:
        hats = np.append(hats, at(np.arange(js[k] + 1, js[k + 1]))[1])
    for v, want in ((lam_g[1], pi_bytes), (lam_g[-1], pi_bytes),
                    (hats.min(), til_bytes), (hats.max(), til_bytes)):
        if sub.best_response(np.array([v])).actions.tobytes() != want:
            return None

    def rows_at(j):
        """The trace rows of rounds t0+1+j."""
        lam_r, hat_r, c_r, g_r, lx_r, ln_r, gap_r = at(j)
        return np.column_stack([
            lam_r, B - lam_r, np.full(len(j), c_t), np.full(len(j), g_t[0]),
            c_r, g_r, lx_r, ln_r, c_r + hat_r * (g_r - tau), gap_r])

    t_end = t0 + stop
    trace_buf.defer(t0, t_end, rows_at)
    cum = float(lam_sum(np.array([float(stop)]))[0])
    state.add_member(pi_t, c_t, g_t, repeat=stop)
    state.sum_lam[0] += cum
    state.sum_lam[1] += stop * B - cum
    dn = d0 + stop * de  # the logit entering round t_end + 1
    ezn = math.exp(-abs(dn))
    v0 = lam_stop if converged else B * (ezn / (1.0 + ezn) if dn >= 0
                                         else 1.0 / (1.0 + ezn))
    return DualVector(np.maximum([v0, B - v0], 1e-300), B, EG_FLAVOR), converged


def regularization_grid(dataset, lams, config, mdp_handle=None):
    """For each multiplier lam of the grid, the best response to cost
    c + lam.g and its value estimates; returns a list of (lam, policy,
    C_hat, G_hat) in grid order."""
    sub = _make_subroutine(dataset, config, mdp_handle)
    out = []
    for lam in lams:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        policy = sub.best_response(lam)
        c_hat, g_hat = sub.evaluate(policy)
        out.append((lam, policy, c_hat, g_hat))
    return out


def exact_constrained_optimum(mdp, tau, B, eta, omega, max_rounds=None):
    """Constrained optimum via the primal-dual loop with exact subroutines.

    Returns (C*, mixture). Raises ConvergenceError (with the partial mixture
    attached) if the duality gap does not reach omega within the round cap.
    """
    config = LearnerConfig(B=B, eta=eta, omega=omega, tau=tau,
                           subroutine_flavor="exact", max_rounds=max_rounds)
    mixture, trace = run(None, config, mdp_handle=mdp)
    if not trace.converged:
        raise ConvergenceError("duality gap did not reach omega within the "
                               "round cap", mixture=mixture, trace=trace)
    c_star, _ = exact_policy_values(mdp, mixture)
    return c_star, mixture


def derandomize(mixture, tau):
    """Pick the member with the best primary estimate among those whose
    estimated constraint values satisfy tau; falls back to the member with
    the smallest worst-case violation. Returns (policy, member_index)."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    feasible = [i for i, g in enumerate(mixture.member_g_hat)
                if np.all(g <= tau)]
    if feasible:
        best = min(feasible, key=lambda i: mixture.member_c_hat[i])
    else:
        best = min(range(len(mixture.members)),
                   key=lambda i: float(np.max(mixture.member_g_hat[i] - tau)))
    return mixture.members[best], best


def write_trace_csv(trace, path):
    """Trace CSV: round,lambda_1..lambda_dim,C_hat,G_1..G_m,L_max,L_min,gap,
    written by dataset.write_csv."""
    dim, m = trace.lambdas.shape[1], trace.g_hat_member.shape[1]
    header = ("round," + ",".join(f"lambda_{i + 1}" for i in range(dim))
              + ",C_hat" + "".join(f",G_{i + 1}" for i in range(m))
              + ",L_max,L_min,gap")
    write_csv(path, header, (trace.rounds, *trace.lambdas.T,
                             trace.c_hat_member, *trace.g_hat_member.T,
                             trace.l_max, trace.l_min, trace.gap))
