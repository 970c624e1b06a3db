import numpy as np
import pytest

from cbpl.batchrl import CostSelector, EmpiricalModel, fqe
from cbpl.dataset import (Dataset, check_indices, collect,
                          full_coverage_dataset, load,
                          make_frozenlake_behavior, subsample)
from cbpl.funcapprox import QFunction
from cbpl.cli import main
from cbpl.mdp import (DeterministicPolicy, StochasticPolicy, TabularMdp,
                      as_stochastic, build_combination_lock, build_frozenlake,
                      build_random_mdp)
import cbpl.ope as ope_mod
from cbpl.ope import (OpeConfig, doubly_robust, ope_comparison, pdis,
                      weighted_doubly_robust, write_ope_report)
from cbpl.oracle import ExactSolver, exact_policy_values

from conftest import FROZENLAKE_4X4, empty_dataset


def random_terminating_mdp(seed, num_states=4, num_actions=2, gamma=0.9):
    """Seeded random MDP whose last state is terminal and reachable from
    every (x, a) with probability >= 0.4, keeping trajectories short."""
    rng = np.random.default_rng(seed)
    S, A = num_states, num_actions
    transition = rng.dirichlet(np.ones(S), size=(S, A))
    transition = 0.6 * transition
    transition[:, :, S - 1] += 0.4
    transition[S - 1] = 0.0
    transition[S - 1, :, S - 1] = 1.0
    cost_c = rng.uniform(0.0, 1.0, size=(S, A))
    cost_c[S - 1] = 0.0
    initial = np.zeros(S)
    initial[0] = 1.0
    return TabularMdp(transition, cost_c, np.zeros((S, A, 0)), gamma, initial,
                      terminal_states={S - 1})


def monte_carlo_mean(dataset, gamma):
    total = 0.0
    for s, e in zip(*dataset.trajectory_bounds()):
        total += float(np.sum(gamma ** np.arange(e - s) * dataset.c[s:e]))
    return total / dataset.num_trajectories


def exact_q_table(mdp, policy):
    return QFunction(
        table=ExactSolver(mdp).policy_channel_q(policy.actions)[:, :, 0])


def two_action_chain():
    """One decision state with two actions into an absorbing terminal;
    action 0 costs 1, action 1 costs 0."""
    transition = np.zeros((2, 2, 2))
    transition[0, :, 1] = 1.0
    transition[1, :, 1] = 1.0
    cost_c = np.array([[1.0, 0.0], [0.0, 0.0]])
    return TabularMdp(transition, cost_c, np.zeros((2, 2, 0)), 0.9,
                      np.array([1.0, 0.0]), terminal_states={1})


def per_trajectory_pdis(data, probs, gamma):
    """PDIS as a loop over trajectories."""
    total = 0.0
    for s, e in zip(*data.trajectory_bounds()):
        rho = probs[data.x[s:e], data.a[s:e]] / data.behavior_prob[s:e]
        total += float(np.sum(gamma ** np.arange(e - s) * np.cumprod(rho)
                              * data.c[s:e]))
    return total / data.num_trajectories


def recursive_dr(data, probs, q, gamma):
    """DR_t = V(x_t) + rho_t (c_t + gamma DR_{t+1} - Q(x_t, a_t)) from the
    last step back, averaged over trajectories."""
    v = (probs * q).sum(axis=1)
    total = 0.0
    for s, e in zip(*data.trajectory_bounds()):
        dr = 0.0
        for i in range(e - 1, s - 1, -1):
            x, a = data.x[i], data.a[i]
            rho = probs[x, a] / data.behavior_prob[i]
            dr = v[x] + rho * (data.c[i] + gamma * dr - q[x, a])
        total += dr
    return total / data.num_trajectories


def looped_wdr(data, probs, q, gamma):
    """WDR with each trajectory's cumulative weight carried past its end and
    self-normalized per timestep; at a timestep whose weights sum to zero
    every weight is zero."""
    v = (probs * q).sum(axis=1)
    slices = list(zip(*data.trajectory_bounds()))
    n, horizon = len(slices), max(e - s for s, e in slices)
    cum = np.ones((n, horizon))
    for i, (s, e) in enumerate(slices):
        rho = probs[data.x[s:e], data.a[s:e]] / data.behavior_prob[s:e]
        cum[i, :e - s] = np.cumprod(rho)
        cum[i, e - s:] = cum[i, e - s - 1]
    total = 0.0
    prev = np.full(n, 1.0 / n)
    for t in range(horizon):
        col_sum = cum[:, t].sum()
        w = cum[:, t] / col_sum if col_sum > 0 else np.zeros(n)
        for i, (s, e) in enumerate(slices):
            if t < e - s:
                x, a = data.x[s + t], data.a[s + t]
                total += gamma ** t * (w[i] * (data.c[s + t] - q[x, a])
                                       + prev[i] * v[x])
        prev = w
    return total


def padded_weighted_sum(dataset, eval_policy, gamma, q_hat=None,
                        normalized=False):
    """The estimators' sum over the padded (trajectories x horizon) matrix,
    the layout the ragged sum in cbpl.ope replaces: the cumulative ratio is
    a cumprod along each padded row (1 past the end), and WDR divides each
    column by its sum."""
    if q_hat is not None:
        vals = q_hat.values()
    elif isinstance(eval_policy, StochasticPolicy):
        vals = np.zeros(eval_policy.probs.shape)
    else:
        vals = np.zeros((len(eval_policy.actions),
                         max(dataset.a.max(), eval_policy.actions.max()) + 1))
    check_indices(dataset, *vals.shape)
    probs = as_stochastic(eval_policy, *vals.shape)
    v = np.einsum("xa,xa->x", probs, vals)
    starts, stops = dataset.trajectory_bounds()
    n, horizon = len(starts), int((stops - starts).max())
    row = np.repeat(np.arange(n), stops - starts)
    col = np.arange(len(dataset)) - starts[row]
    x, a = dataset.x, dataset.a

    def padded(values, fill=0.0):
        out = np.full((n, horizon), fill)
        out[row, col] = values
        return out

    w = np.cumprod(padded(probs[x, a] / dataset.behavior_prob, 1.0), axis=1)
    if normalized:
        sums = w.sum(axis=0)
        w = np.divide(w, sums, out=np.zeros_like(w), where=sums > 0)
    else:
        w /= n
    w_prev = np.concatenate([np.full((n, 1), 1.0 / n), w[:, :-1]], axis=1)
    terms = w * (padded(dataset.c) - padded(vals[x, a])) + w_prev * padded(v[x])
    return float(np.sum(gamma ** np.arange(horizon) * terms))


def assert_matches_padded(data, policy, q_hat, gamma):
    """PDIS, DR and WDR agree with the padded-matrix sum within 1e-12."""
    assert pdis(data, policy, gamma) == pytest.approx(
        padded_weighted_sum(data, policy, gamma), abs=1e-12)
    assert doubly_robust(data, policy, q_hat, gamma) == pytest.approx(
        padded_weighted_sum(data, policy, gamma, q_hat), abs=1e-12)
    assert weighted_doubly_robust(data, policy, q_hat, gamma) == (
        pytest.approx(padded_weighted_sum(data, policy, gamma, q_hat,
                                          normalized=True), abs=1e-12))


def random_dataset(rng, num_states, num_actions, num_trajs, max_len,
                   zero_at=None):
    """Trajectories of random lengths 1..max_len (some length 1), each ending
    done or truncated at random, with random propensities and costs. With
    zero_at = (actions, t), the step min(t, length - 1) of every trajectory
    takes an action other than actions[x], so a deterministic policy with
    those actions has every cumulative weight 0 from timestep t on."""
    cols = {k: [] for k in ("traj_id", "t", "x", "a", "x_next", "done")}
    lengths = rng.integers(1, max_len + 1, size=num_trajs)
    lengths[:2] = 1
    for tid, length in enumerate(lengths):
        xs = rng.integers(0, num_states, size=length + 1)
        acts = rng.integers(0, num_actions, size=length)
        if zero_at is not None:
            actions, t = zero_at
            k = min(t, length - 1)
            acts[k] = (actions[xs[k]] + 1) % num_actions
        cols["traj_id"] += [tid] * length
        cols["t"] += range(length)
        cols["x"] += xs[:-1].tolist()
        cols["a"] += acts.tolist()
        cols["x_next"] += xs[1:].tolist()
        cols["done"] += [False] * (length - 1) + [bool(rng.integers(2))]
    n = len(cols["x"])
    return Dataset(cols["traj_id"], cols["t"], cols["x"], cols["a"],
                   cols["x_next"], rng.uniform(-1, 1, n), np.zeros((n, 0)),
                   cols["done"], rng.uniform(0.1, 1.0, n))


class TestWeightedSumMatchesLoops:
    """The three estimators, one ragged sum over the trajectories, against
    the per-trajectory loops and the padded-matrix sum they replace."""

    S, A = 5, 3

    def check(self, data, policy, probs, q_table, gamma):
        q_hat = QFunction(table=q_table)
        assert pdis(data, policy, gamma) == pytest.approx(
            per_trajectory_pdis(data, probs, gamma), abs=1e-12)
        assert doubly_robust(data, policy, q_hat, gamma) == pytest.approx(
            recursive_dr(data, probs, q_table, gamma), abs=1e-12)
        assert weighted_doubly_robust(data, policy, q_hat, gamma) == (
            pytest.approx(looped_wdr(data, probs, q_table, gamma), abs=1e-12))
        assert_matches_padded(data, policy, q_hat, gamma)

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_lengths(self, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, self.S, self.A, 40, 12)
        starts, stops = data.trajectory_bounds()
        ends_done = data.done[stops - 1]
        assert ends_done.any() and not ends_done.all()
        assert (stops - starts).min() == 1
        q_table = rng.uniform(-2, 2, size=(self.S, self.A))
        actions = rng.integers(0, self.A, size=self.S)
        probs = rng.dirichlet(np.ones(self.A), size=self.S)
        for policy, table in [(DeterministicPolicy(actions),
                               np.eye(self.A)[actions]),
                              (StochasticPolicy(probs), probs)]:
            self.check(data, policy, table, q_table, 0.9)

    @pytest.mark.parametrize("seed", range(3))
    def test_timestep_with_all_weights_zero(self, seed):
        rng = np.random.default_rng(100 + seed)
        actions = rng.integers(0, self.A, size=self.S)
        data = random_dataset(rng, self.S, self.A, 25, 8,
                              zero_at=(actions, 2))
        policy = DeterministicPolicy(actions)
        probs = np.eye(self.A)[actions]
        q_table = rng.uniform(-2, 2, size=(self.S, self.A))
        for s, e in zip(*data.trajectory_bounds()):
            head = slice(s, min(e, s + 3))
            assert np.any(data.a[head] != actions[data.x[head]])
        self.check(data, policy, probs, q_table, 0.95)


class TestRaggedSumMatchesPadded:
    """The ragged sum against the padded-matrix reference on a hand-built
    case and on full-size FrozenLake collections."""

    def test_trajectory_ends_with_nonzero_weight_while_another_runs_on(self):
        # Trajectory 0 ends after one step with cumulative ratio 2;
        # trajectory 1 has ratios 0.5 and then 2. At t = 0 the weights are
        # 2 / 2.5 and 0.5 / 2.5, adding 0.8 * 1 + 0.2 * 1 = 1. At t = 1
        # trajectory 0's ratio 2 stays in the normalizer, so trajectory 1
        # weighs 1 / (2 + 1) and the step adds 0.9 * 4 / 3 = 1.2.
        data = Dataset([0, 1, 1], [0, 0, 1], [0, 0, 0], [0, 0, 1], [0, 0, 0],
                       [1.0, 1.0, 4.0], np.zeros((3, 0)), [True, False, True],
                       [0.25, 1.0, 0.25])
        policy = StochasticPolicy([[0.5, 0.5]])
        zero_q = QFunction.tabular_zeros(1, 2)
        assert weighted_doubly_robust(data, policy, zero_q, 0.9) == (
            pytest.approx(2.2, abs=1e-15))
        assert_matches_padded(data, policy, zero_q, 0.9)
        assert_matches_padded(data, policy,
                              QFunction(table=np.array([[0.3, -0.7]])), 0.9)

    @staticmethod
    def check_policies(fl8, data):
        """A deterministic (greedy) and a stochastic evaluation policy, each
        with its FQE table as the control variate."""
        template = QFunction.tabular_zeros(64, 4)
        for policy in (ExactSolver(fl8).best_response(np.array([1e6])),
                       make_frozenlake_behavior(fl8, 0.5)):
            _, run = fqe(data, policy, CostSelector.primary(), 100, template,
                         mdp=fl8)
            assert_matches_padded(data, policy, run.q_final, fl8.gamma)

    def test_estimator_comparison_protocol(self, fl8):
        # test_08's collection: epsilon 0.5, 5000 trajectories, seed 1.
        data = collect(fl8, make_frozenlake_behavior(fl8, 0.5), 5000, 200,
                       np.random.default_rng(1))
        for fraction in (0.1, 1.0):
            sub = subsample(data, fraction, np.random.default_rng(2))
            self.check_policies(fl8, sub)

    def test_default_collections(self, fl8, fl8_dataset, tmp_path):
        starts, stops = fl8_dataset.trajectory_bounds()
        assert (len(fl8_dataset), (stops - starts).max()) == (144_281, 154)
        self.check_policies(fl8, fl8_dataset)
        path = str(tmp_path / "d.csv")
        assert main(["collect", "--seed", "1", "--out", path]) == 0
        data = load(path)
        starts, stops = data.trajectory_bounds()
        assert (len(data), (stops - starts).max()) == (141_408, 200)
        self.check_policies(fl8, data)


class TestTrialsAreTrajectoryDraws:
    """A trial of ope_comparison reads the rows of its drawn trajectories in
    the full dataset and counts its model from the full dataset's. Its four
    rows equal fqe, pdis, doubly_robust and weighted_doubly_robust on the
    Dataset that subsample draws with the trial's generator, and the model
    its FQE runs on is from_dataset of that Dataset."""

    FRACTIONS = (0.05, 0.1, 0.5, 0.9, 1.0)
    FIELDS = ("x", "a", "x_next", "done", "c", "g", "count", "starts")

    def check(self, data, policy, mdp, monkeypatch, trials=2):
        models = []

        def recording_fqe(model, *args, **kwargs):
            models.append(model)
            return fqe(model, *args, **kwargs)

        monkeypatch.setattr(ope_mod, "fqe", recording_fqe)
        config = OpeConfig(fqe_iters=40, seed=7)
        rows = ope_comparison(data, policy, mdp, self.FRACTIONS, trials,
                              config)
        tasks = [(f, trial) for f in self.FRACTIONS for trial in range(trials)]
        seeds = np.random.SeedSequence(config.seed).spawn(len(tasks))
        assert len(models) == len(tasks)
        exact_c, _ = exact_policy_values(mdp, policy)
        template = QFunction.tabular_zeros(mdp.num_states, mdp.num_actions)
        expected = []
        for (fraction, trial), seed, model in zip(tasks, seeds, models):
            sub = subsample(data, fraction, np.random.default_rng(seed))
            built = EmpiricalModel.from_dataset(sub)
            for field in self.FIELDS:
                got, want = getattr(model, field), getattr(built, field)
                assert got.dtype == want.dtype, field
                assert np.array_equal(got, want), field
            est, run = fqe(sub, policy, CostSelector.primary(),
                           config.fqe_iters, template, mdp=mdp)
            q_hat = run.q_final
            for name, value in (
                    ("fqe", est), ("pdis", pdis(sub, policy, mdp.gamma)),
                    ("dr", doubly_robust(sub, policy, q_hat, mdp.gamma)),
                    ("wdr", weighted_doubly_robust(sub, policy, q_hat,
                                                   mdp.gamma))):
                expected.append((name, fraction, trial, value,
                                 abs(value - exact_c)))
        assert rows == expected
        return rows

    @pytest.mark.parametrize("seed", range(3))
    def test_frozenlake(self, fl8, seed, monkeypatch):
        data = collect(fl8, make_frozenlake_behavior(fl8, 0.5), 400, 200,
                       np.random.default_rng(seed))
        self.check(data, ExactSolver(fl8).best_response(np.array([1e6])),
                   fl8, monkeypatch)
        rows = self.check(data, make_frozenlake_behavior(fl8, 0.8), fl8,
                          monkeypatch)
        # A draw of a few trajectories may miss the goal; larger ones do not.
        assert all(est != 0 for name, fraction, _, est, _ in rows
                   if name == "pdis" and fraction >= 0.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_two_constraint_columns_and_unordered_ids(self, seed,
                                                      monkeypatch):
        mdp = build_random_mdp(6, 3, 2, seed)
        behavior = StochasticPolicy(np.full((6, 3), 1.0 / 3.0))
        data = collect(mdp, behavior, 200, 15, np.random.default_rng(seed))
        assert data.m == 2
        # Trajectory ids in no particular order, with gaps.
        starts, stops = data.trajectory_bounds()
        ids = np.random.default_rng(seed).permutation(len(starts)) * 7 + 3
        data = Dataset(np.repeat(ids, stops - starts), data.t, data.x, data.a,
                       data.x_next, data.c, data.g, data.done,
                       data.behavior_prob)
        policy = StochasticPolicy(
            np.random.default_rng(seed).dirichlet(np.ones(3), size=6))
        rows = self.check(data, policy, mdp, monkeypatch)
        assert all(est != 0 for name, _, _, est, _ in rows if name == "pdis")


class TestPdis:
    def test_on_policy_equals_monte_carlo_mean(self, fl8, fl8_behavior):
        data = collect(fl8, fl8_behavior, 300, 200, np.random.default_rng(4))
        est = pdis(data, fl8_behavior, fl8.gamma)
        assert est == pytest.approx(monte_carlo_mean(data, fl8.gamma),
                                    abs=1e-12)

    def test_fully_disagreeing_policy_estimates_zero(self):
        mdp = build_combination_lock(4)
        always_forward = StochasticPolicy(
            np.column_stack([np.zeros(4), np.ones(4)]))
        data = collect(mdp, always_forward, 10, 10, np.random.default_rng(0))
        always_reset = DeterministicPolicy(np.zeros(4, dtype=np.int64))
        assert pdis(data, always_reset, mdp.gamma) == 0.0

    def test_empty_dataset_raises(self):
        policy = DeterministicPolicy(np.zeros(16, dtype=np.int64))
        with pytest.raises(ValueError, match="^dataset is empty$"):
            pdis(empty_dataset(1), policy, 0.9)

    def test_off_policy_matches_exact_within_clt_band(self):
        mdp = two_action_chain()
        behavior = StochasticPolicy(np.full((2, 2), 0.5))
        eval_policy = DeterministicPolicy([0, 0])
        exact_c, _ = exact_policy_values(mdp, eval_policy)
        estimates = []
        for seed in range(30):
            data = collect(mdp, behavior, 10_000, 5,
                           np.random.default_rng(seed))
            estimates.append(pdis(data, eval_policy, mdp.gamma))
        estimates = np.asarray(estimates)
        sigma = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact_c) <= 3 * sigma


class TestDoublyRobust:
    def test_exact_q_on_deterministic_on_policy_data_has_zero_variance(self):
        mdp = build_combination_lock(4, gamma=0.9)
        forward = DeterministicPolicy(np.ones(4, dtype=np.int64))
        behavior = StochasticPolicy(
            np.column_stack([np.zeros(4), np.ones(4)]))
        q_hat = exact_q_table(mdp, forward)
        exact_c, _ = exact_policy_values(mdp, forward)
        estimates = []
        for seed in range(5):
            data = collect(mdp, behavior, 20, 10, np.random.default_rng(seed))
            estimates.append(doubly_robust(data, forward, q_hat, mdp.gamma))
        assert np.ptp(estimates) == 0.0
        assert estimates[0] == pytest.approx(exact_c, abs=1e-12)

    def test_zero_q_reduces_to_pdis(self, fl8, fl8_behavior):
        data = collect(fl8, fl8_behavior, 200, 200, np.random.default_rng(2))
        eval_policy = ExactSolver(fl8).best_response(np.array([1e6]))
        zero_q = QFunction.tabular_zeros(64, 4)
        dr = doubly_robust(data, eval_policy, zero_q, fl8.gamma)
        assert dr == pytest.approx(pdis(data, eval_policy, fl8.gamma),
                                   abs=1e-12)

    def test_mean_over_seeds_within_clt_band(self):
        mdp = random_terminating_mdp(seed=0)
        behavior = StochasticPolicy(np.full((4, 2), 0.5))
        eval_policy = DeterministicPolicy([1, 0, 1, 0])
        exact_c, _ = exact_policy_values(mdp, eval_policy)
        template = QFunction.tabular_zeros(4, 2)
        estimates = []
        for seed in range(30):
            data = collect(mdp, behavior, 400, 100, np.random.default_rng(seed))
            _, run = fqe(data, eval_policy, CostSelector.primary(), 50,
                         template, mdp=mdp)
            estimates.append(doubly_robust(data, eval_policy, run.q_final,
                                           mdp.gamma))
        estimates = np.asarray(estimates)
        sigma = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact_c) <= 3 * sigma


class TestWeightedDoublyRobust:
    def test_on_policy_equals_dr(self, fl8, fl8_behavior):
        data = collect(fl8, fl8_behavior, 100, 200, np.random.default_rng(6))
        template = QFunction.tabular_zeros(64, 4)
        _, run = fqe(data, fl8_behavior, CostSelector.primary(), 50, template,
                     mdp=fl8)
        dr = doubly_robust(data, fl8_behavior, run.q_final, fl8.gamma)
        wdr = weighted_doubly_robust(data, fl8_behavior, run.q_final,
                                     fl8.gamma)
        assert wdr == pytest.approx(dr, abs=1e-10)

    def test_single_trajectory_equals_dr(self):
        mdp = random_terminating_mdp(seed=3)
        behavior = StochasticPolicy(np.full((4, 2), 0.5))
        eval_policy = DeterministicPolicy([0, 1, 0, 0])
        data = collect(mdp, behavior, 1, 50, np.random.default_rng(8))
        q_hat = exact_q_table(mdp, eval_policy)
        dr = doubly_robust(data, eval_policy, q_hat, mdp.gamma)
        wdr = weighted_doubly_robust(data, eval_policy, q_hat, mdp.gamma)
        assert wdr == pytest.approx(dr, abs=1e-10)

    def test_mse_no_worse_than_pdis(self):
        mdp = random_terminating_mdp(seed=1)
        behavior = StochasticPolicy(np.full((4, 2), 0.5))
        eval_policy = DeterministicPolicy([1, 1, 0, 0])
        exact_c, _ = exact_policy_values(mdp, eval_policy)
        template = QFunction.tabular_zeros(4, 2)
        pdis_err, wdr_err = [], []
        for seed in range(30):
            data = collect(mdp, behavior, 200, 100, np.random.default_rng(seed))
            _, run = fqe(data, eval_policy, CostSelector.primary(), 50,
                         template, mdp=mdp)
            pdis_err.append(pdis(data, eval_policy, mdp.gamma) - exact_c)
            wdr_err.append(weighted_doubly_robust(
                data, eval_policy, run.q_final, mdp.gamma) - exact_c)
        assert np.mean(np.square(wdr_err)) <= np.mean(np.square(pdis_err))


class TestOpeComparison:
    def test_zero_trials_raise(self, fl8, fl8_dataset):
        policy = ExactSolver(fl8).best_response(np.array([1e6]))
        with pytest.raises(ValueError, match="trials must be at least 1"):
            ope_comparison(fl8_dataset, policy, fl8, [0.5], 0)

    def test_full_coverage_fqe_error_small(self, fl8):
        data = full_coverage_dataset(fl8)
        policy = ExactSolver(fl8).best_response(np.array([1e6]))
        rows = ope_comparison(data, policy, fl8, [1.0], 1)
        fqe_rows = [r for r in rows if r[0] == "fqe"]
        assert len(fqe_rows) == 1
        assert fqe_rows[0][4] <= 0.01

    def test_rows_are_deterministic_given_seed(self, fl8, fl8_behavior):
        data = collect(fl8, fl8_behavior, 150, 200, np.random.default_rng(1))
        policy = ExactSolver(fl8).best_response(np.array([1e6]))
        config = OpeConfig(fqe_iters=30, seed=5)
        rows1 = ope_comparison(data, policy, fl8, [0.5], 2, config)
        rows2 = ope_comparison(data, policy, fl8, [0.5], 2, config)
        assert rows1 == rows2

    def test_action_outside_map_with_deterministic_policy_raises(self):
        # pdis alone cannot tell: the policy carries no action count, so
        # the row gets ratio 0. The protocol checks a against the map.
        lake = build_frozenlake(FROZENLAKE_4X4)
        data = Dataset([0, 1], [0, 0], [0, 1], [7, 2], [4, 2], [0.0, 0.0],
                       np.zeros((2, 1)), [False, False], [0.25, 0.25])
        policy = DeterministicPolicy(np.zeros(16, dtype=np.int64))
        with pytest.raises(ValueError, match=r"row 1 has a = 7"):
            ope_comparison(data, policy, lake, [1.0], 1)

    def test_report_csv_format(self, fl8, tmp_path):
        data = full_coverage_dataset(fl8)
        policy = ExactSolver(fl8).best_response(np.array([1e6]))
        rows = ope_comparison(data, policy, fl8, [1.0], 1)
        path = tmp_path / "report.csv"
        write_ope_report(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,fraction,trial,estimate,abs_error"
        assert len(lines) == len(rows) + 1
        # The bytes of a per-row writer, also for signed zeros, subnormals
        # and for a report with no rows.
        special = [("pdis", 0.1, 0, -0.0, 5e-324), ("dr", 1 / 3, 7, 1 / 3, 0.0),
                   ("wdr", 1.0, 12, -1e-300, 0.5)]
        for name, report in (("frozenlake", rows), ("special", special),
                             ("empty", [])):
            path = tmp_path / f"{name}.csv"
            write_ope_report(report, path)
            reference = "method,fraction,trial,estimate,abs_error\n" + "".join(
                f"{method},{frac:.17g},{trial},{est:.17g},{err:.17g}\n"
                for method, frac, trial, est, err in report)
            assert path.read_bytes() == reference.encode(), name
