import filecmp
import re
import warnings

import numpy as np
import pytest

from cbpl.cli import load_policy, main, save_mixture, save_policy
from cbpl.learner import ConvergenceError, MixturePolicy, run
from cbpl.mdp import DeterministicPolicy

from conftest import FROZENLAKE_4X4


@pytest.fixture(scope="module")
def map_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "lake4.txt"
    path.write_text("\n".join(FROZENLAKE_4X4) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory, map_file):
    path = tmp_path_factory.mktemp("data") / "lake4.csv"
    code = main(["collect", "--map", map_file, "--trajs", "400",
                 "--horizon", "100", "--epsilon", "1.0", "--seed", "3",
                 "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def seed1_file(tmp_path_factory):
    """What `cbpl collect --seed 1` writes: 141,408 rows on the 8x8 map."""
    path = tmp_path_factory.mktemp("seed1") / "d.csv"
    assert main(["collect", "--seed", "1", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory, dataset_file, map_file):
    path = tmp_path_factory.mktemp("pol") / "greedy.csv"
    code = main(["fqi", "--data", dataset_file, "--map", map_file,
                 "--iters", "50", "--policy-out", str(path)])
    assert code == 0
    return str(path)


def reference_policy_text(actions):
    """A policy file from a per-row writer."""
    return "state,action\n" + "".join(
        f"{x},{a}\n" for x, a in enumerate(actions))


def reference_mixture_text(mixture):
    """A mixture file from a per-row writer."""
    return "member,weight,state,action\n" + "".join(
        f"{i},{w:.17g},{x},{a}\n"
        for i, (policy, w) in enumerate(zip(mixture.members, mixture.weights))
        for x, a in enumerate(policy.actions))


def reference_values_text(mixture):
    """frozenlake-experiment's values.csv from a per-row writer."""
    return "member,weight,C_hat,G_hat_1\n" + "".join(
        f"{i},{w:.17g},{c:.17g},{g[0]:.17g}\n"
        for i, (w, c, g) in enumerate(zip(mixture.weights,
                                          mixture.member_c_hat,
                                          mixture.member_g_hat)))


class TestCollect:
    def test_same_invocation_is_byte_identical(self, tmp_path, map_file):
        argv = lambda out: ["collect", "--map", map_file, "--trajs", "50",
                            "--horizon", "30", "--seed", "7", "--out", out]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(argv(a)) == 0
        assert main(argv(b)) == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_different_seeds_differ(self, tmp_path, map_file):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["collect", "--map", map_file, "--trajs", "50", "--horizon", "30",
              "--seed", "7", "--out", a])
        main(["collect", "--map", map_file, "--trajs", "50", "--horizon", "30",
              "--seed", "8", "--out", b])
        assert not filecmp.cmp(a, b, shallow=False)

    def test_missing_map_file_exits_1(self, tmp_path, capsys):
        code = main(["collect", "--map", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_map_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("SQ\nFG\n")
        code = main(["collect", "--map", str(bad),
                     "--out", str(tmp_path / "d.csv")])
        assert code == 1


class TestLearn:
    def test_exact_flavor_converges_and_writes_outputs(self, tmp_path,
                                                       map_file, capsys):
        trace = tmp_path / "trace.csv"
        pol = tmp_path / "mixture.csv"
        code = main(["learn", "--map", map_file, "--flavor", "exact",
                     "--tau", "0.1", "--B", "5", "--eta", "1.0",
                     "--omega", "0.01", "--rounds", "100000",
                     "--trace-out", str(trace), "--policy-out", str(pol)])
        assert code == 0
        assert "converged=True" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines[0] == "round,lambda_1,lambda_2,C_hat,G_1,L_max,L_min,gap"
        assert len(lines) > 1
        mixture = load_policy(str(pol), 16, 4)
        assert isinstance(mixture, MixturePolicy)

    def test_derandomize_writes_single_policy(self, tmp_path, map_file):
        pol = tmp_path / "policy.csv"
        code = main(["learn", "--map", map_file, "--flavor", "exact",
                     "--tau", "0.1", "--B", "5", "--eta", "1.0",
                     "--omega", "0.01", "--rounds", "100000",
                     "--derandomize", "--policy-out", str(pol)])
        assert code == 0
        policy = load_policy(str(pol), 16, 4)
        assert isinstance(policy, DeterministicPolicy)
        assert len(policy.actions) == 16

    def test_repeat_runs_are_byte_identical(self, tmp_path, map_file,
                                            dataset_file):
        argv = lambda out: ["learn", "--data", dataset_file, "--map", map_file,
                            "--flavor", "fitted", "--tau", "0.1",
                            "--iters-fqi", "20", "--iters-fqe", "20",
                            "--rounds", "30", "--trace-out", out]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(argv(a))
        main(argv(b))
        assert filecmp.cmp(a, b, shallow=False)

    def test_fitted_defaults_equal_explicit_flags(self, tmp_path, map_file,
                                                  dataset_file):
        argv = lambda out, *flags: ["learn", "--data", dataset_file, "--map",
                                    map_file, "--rounds", "30", *flags,
                                    "--trace-out", out]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(argv(a))
        main(argv(b, "--iters-fqi", "100", "--iters-fqe", "100"))
        assert filecmp.cmp(a, b, shallow=False)

    def test_round_cap_exits_2(self, map_file, capsys):
        code = main(["learn", "--map", map_file, "--flavor", "exact",
                     "--tau", "0.1", "--omega", "1e-9", "--rounds", "2"])
        assert code == 2
        assert "converged=False" in capsys.readouterr().out

    def test_fitted_flavor_without_data_exits_1(self, map_file, capsys):
        code = main(["learn", "--map", map_file, "--flavor", "fitted"])
        assert code == 1
        assert "requires --data" in capsys.readouterr().err

    def test_lspi_flavor_converges_and_writes_outputs(self, tmp_path, map_file,
                                                      dataset_file, capsys):
        trace = tmp_path / "trace.csv"
        pol = tmp_path / "mixture.csv"
        code = main(["learn", "--data", dataset_file, "--map", map_file,
                     "--flavor", "lspi", "--tau", "0.1",
                     "--trace-out", str(trace), "--policy-out", str(pol)])
        assert code == 0
        assert "converged=True" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines[0] == "round,lambda_1,lambda_2,C_hat,G_1,L_max,L_min,gap"
        assert len(lines) > 1
        mixture = load_policy(str(pol), 16, 4)
        assert isinstance(mixture, MixturePolicy)

    def test_exact_flavor_without_map_exits_1(self, capsys):
        code = main(["learn", "--flavor", "exact"])
        assert code == 1
        assert "requires --map" in capsys.readouterr().err


class TestFittedSubcommands:
    def test_fqe_prints_estimate(self, dataset_file, map_file, policy_file,
                                 capsys):
        code = main(["fqe", "--data", dataset_file, "--map", map_file,
                     "--policy", policy_file, "--iters", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("estimate,")
        assert np.isfinite(float(out.split(",")[1]))

    def test_fqe_constraint_channel(self, dataset_file, map_file, policy_file,
                                    capsys):
        code = main(["fqe", "--data", dataset_file, "--map", map_file,
                     "--policy", policy_file, "--cost", "g:1",
                     "--iters", "50"])
        assert code == 0
        assert float(capsys.readouterr().out.split(",")[1]) >= 0.0

    def test_fqi_stdout_policy_table(self, dataset_file, map_file, capsys):
        code = main(["fqi", "--data", dataset_file, "--map", map_file,
                     "--iters", "50"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "state,action"
        assert len(lines) == 17

    def test_fqi_scalarized_cost(self, dataset_file, map_file, tmp_path):
        pol = tmp_path / "p.csv"
        code = main(["fqi", "--data", dataset_file, "--map", map_file,
                     "--cost", "scalarized:2.0", "--iters", "50",
                     "--policy-out", str(pol)])
        assert code == 0
        assert load_policy(str(pol), 16, 4).actions.shape == (16,)

    def test_bad_cost_spec_exits_1(self, dataset_file, map_file, capsys):
        code = main(["fqi", "--data", dataset_file, "--map", map_file,
                     "--cost", "reward"])
        assert code == 1

    def test_lspi_writes_policy(self, dataset_file, map_file, tmp_path):
        pol = tmp_path / "p.csv"
        code = main(["lspi", "--data", dataset_file, "--map", map_file,
                     "--policy-out", str(pol)])
        assert code == 0
        assert load_policy(str(pol), 16, 4).actions.shape == (16,)

    # Actions 1 and 2 tie exactly at states 36 and 37 under costs c and
    # scalarized:0.5; a ridge of 1e-8 split them past the tie tolerance.
    @pytest.mark.parametrize("cost", ["c", "g:1", "scalarized:0.5",
                                      "scalarized:30"])
    @pytest.mark.parametrize("map_args", [["--map", "8x8"], []],
                             ids=["map", "no_map"])
    def test_lspi_writes_fqi_policy(self, cost, map_args, seed1_file,
                                    tmp_path):
        lspi, fqi = _lspi_and_fqi_policies(
            tmp_path, ["--data", seed1_file, *map_args, "--cost", cost])
        assert lspi == fqi

    # Without a map the data give the states; FQI needs no t = 0 sample.
    def test_lspi_without_map_or_t0_samples_writes_fqi_policy(
            self, tmp_path):
        data = tmp_path / "t3.csv"
        data.write_text(TestErrorExitCodes.DATA_FILES["starts_at_t3"])
        lspi, fqi = _lspi_and_fqi_policies(tmp_path, ["--data", str(data)])
        assert lspi == fqi


def _lspi_and_fqi_policies(tmp_path, args):
    """The bytes of the policy files `cbpl lspi` and `cbpl fqi` write."""
    out = []
    for name in ("lspi", "fqi"):
        path = tmp_path / f"{name}.csv"
        assert main([name, *args, "--policy-out", str(path)]) == 0
        out.append(path.read_bytes())
    return out


class TestOracle:
    def test_prints_exact_values(self, map_file, policy_file, capsys):
        code = main(["oracle", "--map", map_file, "--policy", policy_file])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "C,G_1"
        c, g = (float(v) for v in lines[1].split(","))
        assert -1.0 <= c <= 0.0 and 0.0 <= g <= 1.0

    def test_missing_policy_file_exits_1(self, map_file, tmp_path, capsys):
        code = main(["oracle", "--map", map_file,
                     "--policy", str(tmp_path / "nope.csv")])
        assert code == 1


def _policy_rows(states, action=0):
    return "state,action\n" + "".join(f"{x},{action}\n" for x in range(states))


def _mixture_rows(weight):
    """Two members over the 16 states of the 4x4 map, member i taking action
    i; weight(i, x) is the weight field of member i's row for state x."""
    return "member,weight,state,action\n" + "".join(
        f"{i},{weight(i, x)},{x},{i}\n" for i in (0, 1) for x in range(16))


class TestPolicyFileValidation:
    # The 4x4 map has 16 states and 4 actions.
    BAD_FILES = {
        "one_state": _policy_rows(1),
        "ten_states": _policy_rows(10),
        "action_equal_to_A": _policy_rows(16, action=4),
        "negative_action": _policy_rows(16, action=-1),
        "missing_state": _policy_rows(16).replace("7,0\n", ""),
        "mixture_member_short": "member,weight,state,action\n0,1,0,0\n",
        "short_row": "state,action\n0\n",
    }

    @pytest.mark.parametrize("command", ["oracle", "ope-compare", "fqe"])
    @pytest.mark.parametrize("name", sorted(BAD_FILES))
    def test_mismatched_policy_exits_1_with_one_error_line(
            self, command, name, map_file, dataset_file, tmp_path, capsys):
        pol = tmp_path / "bad.csv"
        pol.write_text(self.BAD_FILES[name])
        argv = {"oracle": ["oracle", "--map", map_file],
                "ope-compare": ["ope-compare", "--data", dataset_file,
                                "--map", map_file, "--fractions", "1.0",
                                "--trials", "1", "--iters", "5",
                                "--out", str(tmp_path / "r.csv")],
                "fqe": ["fqe", "--data", dataset_file, "--map", map_file,
                        "--iters", "5"]}[command]
        assert main(argv + ["--policy", str(pol)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), captured.err
        assert captured.out == ""

    def test_matching_policy_still_loads(self, map_file, tmp_path):
        pol = tmp_path / "ok.csv"
        pol.write_text(_policy_rows(16, action=3))
        assert main(["oracle", "--map", map_file, "--policy", str(pol)]) == 0
        pol.write_text(_mixture_rows(lambda i, x: (0.25, 0.75)[i]))
        assert main(["oracle", "--map", map_file, "--policy", str(pol)]) == 0

    # weight(member, state) gives each row's weight field.
    BAD_WEIGHTS = {
        "all_zero": lambda i, x: 0,
        "one_zero": lambda i, x: i,
        "negative": lambda i, x: (-1, 2)[i],
        "inf": lambda i, x: ("inf", 1)[i],
        "nan": lambda i, x: (1, "nan")[i],
        "member_rows_disagree": lambda i, x: 0.25 if x == 5 else 0.5,
    }

    @pytest.mark.parametrize("name", sorted(BAD_WEIGHTS))
    def test_bad_mixture_weights_exit_1_with_one_error_line(
            self, name, map_file, tmp_path, capsys):
        pol = tmp_path / "mix.csv"
        pol.write_text(_mixture_rows(self.BAD_WEIGHTS[name]))
        assert main(["oracle", "--map", map_file, "--policy", str(pol)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), captured.err
        assert str(pol) in err[0] and "weight" in err[0]
        assert captured.out == ""

    # A row whose fields do not parse; each is the file's line 2.
    MALFORMED_ROWS = {
        "non_integer_action": "state,action\n0,x\n",
        "real_valued_state": "state,action\n1.0,0\n",
        "non_numeric_weight": "member,weight,state,action\n0,abc,0,0\n",
        "short_row": "state,action\n0\n",
        "non_utf8_byte": "state,action\n0,\xff\n",
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED_ROWS))
    def test_malformed_row_names_file_and_line(self, name, map_file,
                                               tmp_path, capsys):
        pol = tmp_path / "bad.csv"
        pol.write_bytes(self.MALFORMED_ROWS[name].encode("latin-1"))
        assert main(["oracle", "--map", map_file, "--policy", str(pol)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), captured.err
        assert f"{pol}: line 2: " in err[0]
        assert captured.out == ""


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


def _data_rows(x=0, a=1, x_next=4, c="0", g="0", bp="0.25"):
    """Two one-step trajectories on the 4x4 map; the first row has the given
    x, a, x_next, c, g_1 and behavior_prob."""
    return ("traj_id,t,x,a,x_next,c,g_1,done,behavior_prob\n"
            f"0,0,{x},{a},{x_next},{c},{g},0,{bp}\n"
            "1,0,1,2,2,0,0,0,0.25\n")


class TestErrorExitCodes:
    # The 4x4 map has 16 states and 4 actions; each file breaks one of them.
    DATA_FILES = {
        "x_next_70": _data_rows(x_next=70),
        "x_16": _data_rows(x=16),
        "a_4": _data_rows(a=4),
        "a_7": _data_rows(a=7),
        "x_next_negative": _data_rows(x_next=-1),
        "traj_id_2_63": _data_rows().replace("\n0,0,", f"\n{2 ** 63},0,"),
        # Not a dataset: a two-member mixture over the 16 states.
        "mixture": "member,weight,state,action\n" + "".join(
            f"{i},0.5,{x},{i}\n" for i in (0, 1) for x in range(16)),
        # What `collect --trajs 0` writes.
        "empty": _data_rows().splitlines()[0] + "\n",
        "blank": "",
        "g_2_without_g_1": _data_rows().replace("g_1", "g_2"),
        # Values a dataset cannot hold.
        "c_nan": _data_rows(c="nan"),
        "c_inf": _data_rows(c="inf"),
        "g_nan": _data_rows(g="nan"),
        "g_negative": _data_rows(g="-1"),
        "bp_inf": _data_rows(bp="inf"),
        "bp_zero": _data_rows(bp="0"),
        "bp_above_1": _data_rows(bp="1.5"),
        "bp_zero_then_c_nan": _data_rows(bp="0").replace("\n1,0,1,2,2,0,",
                                                         "\n1,0,1,2,2,nan,"),
        # One trajectory that starts at t = 3 and reaches state 15.
        "starts_at_t3": _data_rows().splitlines()[0] + "\n"
                        "0,3,0,3,15,0,0,0,0.25\n",
        # Not policy files: an unknown header, and a header without rows.
        "foo_bar": "foo,bar\n0,1\n",
        "header_only": "state,action\n",
    }
    # name: (argv with {map}, {data}, {policy}, {dir} and DATA_FILES
    #        placeholders, (attribute to replace, exception it raises) or
    #        None, exit code)
    CASES = {
        "learn_fitted_data_outside_map": (
            ["learn", "--data", "{x_next_70}", "--map", "{map}",
             "--flavor", "fitted"], None, 1),
        "learn_lspi_data_outside_map": (
            ["learn", "--data", "{x_next_70}", "--map", "{map}",
             "--flavor", "lspi"], None, 1),
        "learn_action_outside_map": (
            ["learn", "--data", "{a_4}", "--map", "{map}"], None, 1),
        "fqe_data_outside_map": (
            ["fqe", "--data", "{x_16}", "--map", "{map}",
             "--policy", "{policy}"], None, 1),
        "fqi_data_outside_map": (
            ["fqi", "--data", "{x_next_70}", "--map", "{map}"], None, 1),
        "lspi_action_outside_map": (
            ["lspi", "--data", "{a_4}", "--map", "{map}"], None, 1),
        "ope_compare_data_outside_map": (
            ["ope-compare", "--data", "{x_next_negative}", "--map", "{map}",
             "--policy", "{policy}", "--out", "{dir}/r.csv"], None, 1),
        "learn_lspi_iters_fqi": (
            ["learn", "--data", "{data}", "--map", "{map}", "--flavor", "lspi",
             "--iters-fqi", "20"], None, 1),
        "learn_lspi_ridge": (
            ["learn", "--data", "{data}", "--map", "{map}", "--flavor", "lspi",
             "--ridge", "1e-8"], None, 1),
        "learn_exact_iters_fqe": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--rounds", "5",
             "--iters-fqe", "20"], None, 1),
        "learn_exact_ridge": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--rounds", "5",
             "--ridge", "0.1"], None, 1),
        # Flags that would do nothing.
        "learn_exact_data": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--rounds", "5",
             "--data", "{data}"], None, 1),
        "learn_derandomize_without_policy_out": (
            ["learn", "--data", "{data}", "--map", "{map}", "--derandomize"],
            None, 1),
        "ope_compare_zero_trials": (
            ["ope-compare", "--data", "{data}", "--map", "{map}",
             "--policy", "{policy}", "--trials", "0", "--out", "{dir}/r.csv"],
            None, 1),
        "learn_traj_id_above_int64": (
            ["learn", "--data", "{traj_id_2_63}", "--map", "{map}"], None, 1),
        "fqe_mixture_policy": (
            ["fqe", "--data", "{data}", "--map", "{map}",
             "--policy", "{mixture}"], None, 1),
        # The policy file is deterministic, so pdis alone could not tell.
        "ope_compare_action_outside_map": (
            ["ope-compare", "--data", "{a_7}", "--map", "{map}",
             "--policy", "{policy}", "--out", "{dir}/r.csv"], None, 1),
        "ope_compare_mixture_policy": (
            ["ope-compare", "--data", "{data}", "--map", "{map}",
             "--policy", "{mixture}", "--out", "{dir}/r.csv"], None, 1),
        # Non-finite numbers; none of these may write its output.
        "learn_eta_nan": (
            ["learn", "--data", "{data}", "--map", "{map}", "--eta", "nan",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "learn_tau_inf": (
            ["learn", "--data", "{data}", "--map", "{map}", "--tau", "inf",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "experiment_omega_inf": (
            ["frozenlake-experiment", "--outdir", "{dir}/new", "--omega",
             "inf"], None, 1),
        # Without --map, --gamma is the discount and must lie in (0, 1).
        "fqi_gamma_nan": (
            ["fqi", "--data", "{data}", "--gamma", "nan",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "fqe_gamma_above_1": (
            ["fqe", "--data", "{data}", "--policy", "{policy}",
             "--gamma", "1.5"], None, 1),
        "learn_gamma_0": (
            ["learn", "--data", "{data}", "--gamma", "0", "--rounds", "3",
             "--policy-out", "{dir}/new.csv"], None, 1),
        # LSTDQ would solve ridge * I w = 0; the shape guess has no row.
        "lspi_empty_data": (
            ["lspi", "--data", "{empty}", "--map", "{map}",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "fqi_empty_data_without_map": (
            ["fqi", "--data", "{empty}", "--policy-out", "{dir}/new.csv"],
            None, 1),
        "fqi_cost_g0": (
            ["fqi", "--data", "{data}", "--map", "{map}", "--cost", "g:0",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "fqi_cost_scalarized_nan": (
            ["fqi", "--data", "{data}", "--map", "{map}", "--cost",
             "scalarized:nan", "--policy-out", "{dir}/new.csv"], None, 1),
        "fqe_cost_scalarized_inf": (
            ["fqe", "--data", "{data}", "--map", "{map}", "--policy",
             "{policy}", "--cost", "scalarized:inf"], None, 1),
        # The learner fails on the empty collection before a file is written.
        "experiment_zero_trajs": (
            ["frozenlake-experiment", "--outdir", "{dir}/new", "--trajs",
             "0"], None, 1),
        # The exact optimum's default round cap overflows at this omega.
        "experiment_omega_underflows_the_cap": (
            ["frozenlake-experiment", "--outdir", "{dir}/new", "--trajs", "50",
             "--horizon", "50", "--rounds", "3", "--omega", "1e-160"],
            None, 1),
        "fqe_cost_g2_on_one_constraint": (
            ["fqe", "--data", "{data}", "--map", "{map}", "--policy",
             "{policy}", "--cost", "g:2"], None, 1),
        "fqi_scalarization_too_long": (
            ["fqi", "--data", "{data}", "--map", "{map}", "--cost",
             "scalarized:1,2", "--policy-out", "{dir}/new.csv"], None, 1),
        "policy_header_foo_bar": (
            ["oracle", "--map", "{map}", "--policy", "{foo_bar}"], None, 1),
        "policy_without_rows": (
            ["oracle", "--map", "{map}", "--policy", "{header_only}"], None, 1),
        "blank_data_file": (
            ["fqi", "--data", "{blank}", "--policy-out", "{dir}/new.csv"],
            None, 1),
        "data_g_2_without_g_1": (
            ["fqi", "--data", "{g_2_without_g_1}", "--policy-out",
             "{dir}/new.csv"], None, 1),
        # Without a map FQE reads the initial distribution from the data.
        "fqe_without_map_or_t0_samples": (
            ["fqe", "--data", "{starts_at_t3}", "--policy", "{policy}"],
            None, 1),
        # load rejects the values a dataset cannot hold, naming the row.
        "fqi_data_c_nan": (
            ["fqi", "--data", "{c_nan}", "--policy-out", "{dir}/new.csv"],
            None, 1),
        "fqi_data_c_inf": (
            ["fqi", "--data", "{c_inf}", "--policy-out", "{dir}/new.csv"],
            None, 1),
        "learn_data_g_nan": (
            ["learn", "--data", "{g_nan}", "--map", "{map}",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "learn_data_g_negative": (
            ["learn", "--data", "{g_negative}", "--flavor", "lspi",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "ope_compare_data_bp_inf": (
            ["ope-compare", "--data", "{bp_inf}", "--map", "{map}",
             "--policy", "{policy}", "--out", "{dir}/new.csv"], None, 1),
        "ope_compare_data_bp_zero": (
            ["ope-compare", "--data", "{bp_zero}", "--map", "{map}",
             "--policy", "{policy}", "--out", "{dir}/new.csv"], None, 1),
        "ope_compare_data_bp_above_1": (
            ["ope-compare", "--data", "{bp_above_1}", "--map", "{map}",
             "--policy", "{policy}", "--out", "{dir}/new.csv"], None, 1),
        # As check_indices: the first column with a fault, then its row.
        "fqi_data_first_bad_column": (
            ["fqi", "--data", "{bp_zero_then_c_nan}", "--policy-out",
             "{dir}/new.csv"], None, 1),
        # --tau is a comma list, as learn's; the collection has one
        # constraint.
        "experiment_tau_longer_than_data": (
            ["frozenlake-experiment", "--outdir", "{dir}/new", "--trajs", "50",
             "--horizon", "50", "--tau", "0.1,0.2"], None, 1),
        "no_command": ([], None, 1),
        "unknown_flag": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--bogus"],
            None, 1),
        "bad_int": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--rounds",
             "abc"], None, 1),
        # Flags that changed nothing and are gone.
        "fqe_ridge": (
            ["fqe", "--data", "{data}", "--map", "{map}",
             "--policy", "{policy}", "--ridge", "1e-8"], None, 1),
        "oracle_seed": (
            ["oracle", "--map", "{map}", "--policy", "{policy}",
             "--seed", "1"], None, 1),
        "ope_compare_jobs": (
            ["ope-compare", "--data", "{data}", "--map", "{map}",
             "--policy", "{policy}", "--jobs", "2", "--out", "{dir}/r.csv"],
            None, 1),
        "collect_gamma": (
            ["collect", "--map", "{map}", "--gamma", "0.9",
             "--out", "{dir}/d.csv"], None, 1),
        # LSPI solves the empirical MDP exactly: no ridge, tolerance or
        # iteration cap.
        "lspi_ridge_nan": (
            ["lspi", "--data", "{data}", "--map", "{map}", "--ridge", "nan",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "lspi_eps_nan": (
            ["lspi", "--data", "{data}", "--map", "{map}", "--eps", "nan",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "lspi_zero_iters": (
            ["lspi", "--data", "{data}", "--map", "{map}", "--iters", "0",
             "--policy-out", "{dir}/new.csv"], None, 1),
        "trace_out_is_a_directory": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--rounds", "5",
             "--trace-out", "{dir}"], None, 1),
        "policy_out_is_a_directory": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--rounds", "5",
             "--policy-out", "{dir}"], None, 1),
        "data_is_a_directory": (
            ["fqe", "--data", "{dir}", "--map", "{map}",
             "--policy", "{policy}"], None, 1),
        "learn_exact_tau_longer_than_map": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--tau",
             "0.1,0.2", "--rounds", "3", "--policy-out", "{dir}/new.csv"],
            None, 1),
        # 50 rounds of multipliers up to 1e308 would overflow their sum.
        "dual_budget_overflows": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--tau", "0.1",
             "--rounds", "50", "--B", "1e308", "--policy-out",
             "{dir}/new.csv"], None, 1),
        "zero_rounds": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--rounds", "0"],
            None, 1),
        "policy_iteration_fails": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--rounds", "5"],
            ("cbpl.oracle.ExactSolver.best_response",
             RuntimeError("policy iteration failed to converge")), 2),
        "learner_raises_convergence_error": (
            ["learn", "--map", "{map}", "--flavor", "exact", "--rounds", "5"],
            ("cbpl.cli.run", ConvergenceError("gap did not reach omega")), 2),
    }
    # The whole error line of the cases that name their fault.
    ERROR_LINES = {
        "lspi_empty_data": "error: dataset is empty",
        "fqi_empty_data_without_map": "error: dataset is empty",
        "fqi_cost_g0": "error: cost g:<i> numbers constraints from 1",
        "fqi_cost_scalarized_nan": ("error: scalarized mode needs a "
                                    "nonnegative, finite lam vector"),
        "fqe_cost_scalarized_inf": ("error: scalarized mode needs a "
                                    "nonnegative, finite lam vector"),
        "dual_budget_overflows": ("error: B = 1e+308 times the round cap 50 "
                                  "is not a finite number"),
        "lspi_ridge_nan": "error: cbpl: unrecognized arguments: --ridge nan",
        "lspi_eps_nan": "error: cbpl: unrecognized arguments: --eps nan",
        "lspi_zero_iters": "error: cbpl: unrecognized arguments: --iters 0",
        "experiment_omega_underflows_the_cap": (
            "error: the default round cap 16 B^2 Gbar^2 log(m+1) / omega^2 "
            "at B = 30 and omega = 1e-160 is not a finite number"),
        "fqe_cost_g2_on_one_constraint": (
            "error: constraint index out of range"),
        "fqi_scalarization_too_long": (
            "error: scalarization length must equal the dataset's m"),
        "policy_header_foo_bar": (
            "error: unrecognized policy file header: 'foo,bar'"),
        "policy_without_rows": "error: policy file {header_only} lists no rows",
        "blank_data_file": "error: {blank}: line 1: missing header",
        "data_g_2_without_g_1": ("error: {g_2_without_g_1}: line 1: malformed "
                                 "constraint columns"),
        "fqe_without_map_or_t0_samples": (
            "error: dataset has no t=0 samples to infer the initial "
            "distribution from"),
        "fqi_data_c_nan": ("error: {c_nan}: row 1 has c = nan, outside "
                           "(-inf, inf)"),
        "fqi_data_c_inf": ("error: {c_inf}: row 1 has c = inf, outside "
                           "(-inf, inf)"),
        "learn_data_g_nan": ("error: {g_nan}: row 1 has g_1 = nan, outside "
                             "[0, inf)"),
        "learn_data_g_negative": ("error: {g_negative}: row 1 has g_1 = -1.0, "
                                  "outside [0, inf)"),
        "ope_compare_data_bp_inf": ("error: {bp_inf}: row 1 has behavior_prob "
                                    "= inf, outside (0, 1]"),
        "ope_compare_data_bp_zero": ("error: {bp_zero}: row 1 has "
                                     "behavior_prob = 0.0, outside (0, 1]"),
        "ope_compare_data_bp_above_1": ("error: {bp_above_1}: row 1 has "
                                        "behavior_prob = 1.5, outside (0, 1]"),
        "fqi_data_first_bad_column": ("error: {bp_zero_then_c_nan}: row 2 "
                                      "has c = nan, outside (-inf, inf)"),
        "experiment_tau_longer_than_data": (
            "error: dataset constraint count does not match tau"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exits_with_one_error_line(self, name, map_file, dataset_file,
                                       policy_file, tmp_path, monkeypatch,
                                       capsys):
        argv, patch, code = self.CASES[name]
        if patch is not None:
            monkeypatch.setattr(patch[0], _raise(patch[1]))
        fill = dict(map=map_file, data=dataset_file, policy=policy_file,
                    dir=str(tmp_path))
        for key, text in self.DATA_FILES.items():
            path = tmp_path / f"{key}.csv"
            path.write_text(text)
            fill[key] = str(path)
        assert main([arg.format(**fill) for arg in argv]) == code
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), captured.err
        if name in self.ERROR_LINES:
            assert err[0] == self.ERROR_LINES[name].format(**fill)
        assert captured.out == ""
        assert not list(tmp_path.glob("new*"))

    # It once played its rounds to an overflow warning and exit 2; a budget
    # of 1e7 still plays them.
    @pytest.mark.parametrize("B, code", [("1e308", 1), ("1e7", 2)])
    def test_dual_budget_is_checked_before_any_round(self, B, code, map_file,
                                                     capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["learn", "--map", map_file, "--flavor", "exact",
                         "--tau", "0.1", "--rounds", "50", "--B", B]) == code
        err = capsys.readouterr().err
        assert (err.startswith("error: B = 1e+308") if code == 1
                else err == "")

    def test_tau_longer_than_map_names_the_constraint_count(self, map_file,
                                                            capsys):
        assert main(["learn", "--map", map_file, "--flavor", "exact",
                     "--tau", "0.1,0.2", "--rounds", "3"]) == 1
        assert capsys.readouterr().err == ("error: map constraint count does "
                                           "not match tau\n")


class TestHelp:
    # Each command's flags as its --help lists them, the shared ones first.
    FLAGS = {
        "collect": "-h --trajs --horizon --epsilon --seed --map --out",
        "learn": ("-h --gamma --tau --B --eta --omega --rounds --data --map "
                  "--iters-fqi --iters-fqe --dual --flavor --trace-out "
                  "--policy-out --derandomize"),
        "fqe": "-h --gamma --data --map --cost --iters --policy",
        "fqi": "-h --gamma --data --map --cost --iters --policy-out",
        "lspi": "-h --gamma --data --map --cost --policy-out",
        "oracle": "-h --gamma --map --policy",
        "ope-compare": ("-h --gamma --data --map --policy --fractions --trials "
                        "--iters --out --seed"),
        "frozenlake-experiment": ("-h --trajs --horizon --epsilon --seed "
                                  "--gamma --tau --B --eta --omega --rounds "
                                  "--outdir"),
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_lists_the_commands_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        options = capsys.readouterr().out.split("options:\n")[1]
        assert (re.findall(r"^  (-[-\w]+)", options, re.M)
                == self.FLAGS[command].split())


class TestOpeCompare:
    def test_writes_report(self, dataset_file, map_file, policy_file,
                           tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["ope-compare", "--data", dataset_file, "--map", map_file,
                     "--policy", policy_file, "--fractions", "0.5,1.0",
                     "--trials", "2", "--iters", "30", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,fraction,trial,estimate,abs_error"
        assert len(lines) == 1 + 4 * 2 * 2  # methods x fractions x trials

    def test_repeat_runs_are_byte_identical(self, dataset_file, map_file,
                                            policy_file, tmp_path):
        argv = lambda out: ["ope-compare", "--data", dataset_file,
                            "--map", map_file, "--policy", policy_file,
                            "--fractions", "0.5", "--trials", "2",
                            "--iters", "20", "--seed", "11", "--out", out]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(argv(a))
        main(argv(b))
        assert filecmp.cmp(a, b, shallow=False)

    def test_bad_fraction_exits_1(self, dataset_file, map_file, policy_file,
                                  tmp_path, capsys):
        code = main(["ope-compare", "--data", dataset_file, "--map", map_file,
                     "--policy", policy_file, "--fractions", "0.0,1.0",
                     "--trials", "1", "--out", str(tmp_path / "r.csv")])
        assert code == 1


class TestFrozenlakeExperiment:
    def test_pipeline_writes_all_artifacts(self, tmp_path, monkeypatch,
                                           capsys):
        runs = []

        def recording_run(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr("cbpl.cli.run", recording_run)
        outdir = tmp_path / "exp"
        code = main(["frozenlake-experiment", "--outdir", str(outdir),
                     "--trajs", "400", "--horizon", "100", "--rounds", "60",
                     "--seed", "2"])
        assert code in (0, 2)
        for name in ("dataset.csv", "trace.csv", "mixture.csv", "values.csv",
                     "report.csv"):
            assert (outdir / name).exists()
        report = (outdir / "report.csv").read_text().splitlines()
        assert report[0] == "policy,exact_C,exact_G_1"
        assert report[1].startswith("learned_mixture,")
        # The learner's mixture, written as a per-row writer would.
        (mixture, _), = runs
        assert ((outdir / "values.csv").read_bytes()
                == reference_values_text(mixture).encode())
        assert ((outdir / "mixture.csv").read_bytes()
                == reference_mixture_text(mixture).encode())

    EXPERIMENT = ["frozenlake-experiment", "--trajs", "200", "--horizon",
                  "100", "--rounds", "20", "--seed", "2", "--outdir"]

    def test_oracle_non_convergence_is_reported(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setattr("cbpl.cli.exact_constrained_optimum",
                            _raise(ConvergenceError("gap above omega")))
        assert main(self.EXPERIMENT + [str(tmp_path)]) in (0, 2)
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[-1] == ("exact_constrained_optimum,"
                              "failed (gap above omega),")
        assert capsys.readouterr().err == ""

    def test_oracle_runtime_error_exits_2_with_one_error_line(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "cbpl.cli.exact_constrained_optimum",
            _raise(RuntimeError("policy iteration failed to converge")))
        outdir = tmp_path / "exp"
        assert main(self.EXPERIMENT + [str(outdir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: policy iteration failed to converge"]
        assert not outdir.exists()


class TestPolicyFileRoundTrips:
    def test_deterministic_policy(self, tmp_path):
        policy = DeterministicPolicy([1, 3, 0, 2])
        path = tmp_path / "p.csv"
        save_policy(policy, path)
        assert np.array_equal(load_policy(str(path), 4, 4).actions,
                              policy.actions)
        assert path.read_bytes() == reference_policy_text(
            policy.actions).encode()
        wide = DeterministicPolicy(np.random.default_rng(0).integers(0, 4, 70))
        save_policy(wide, path)
        assert path.read_bytes() == reference_policy_text(
            wide.actions).encode()

    def test_deterministic_policy_without_path_goes_to_stdout(
            self, tmp_path, capsys):
        policy = DeterministicPolicy([1, 3, 0, 2])
        save_policy(policy)
        text = capsys.readouterr().out
        assert text == "state,action\n0,1\n1,3\n2,0\n3,2\n"
        assert text == reference_policy_text(policy.actions)
        path = tmp_path / "p.csv"
        path.write_text(text)
        assert np.array_equal(load_policy(str(path), 4, 4).actions,
                              policy.actions)

    def test_mixture(self, tmp_path):
        members = [DeterministicPolicy([0, 1]), DeterministicPolicy([1, 0])]
        mixture = MixturePolicy(members, [3, 1], [0.0, 0.0],
                                [np.zeros(1), np.zeros(1)])
        path = tmp_path / "m.csv"
        save_mixture(mixture, path)
        loaded = load_policy(str(path), 2, 2)
        assert isinstance(loaded, MixturePolicy)
        assert np.allclose(loaded.weights, [0.75, 0.25])
        assert np.array_equal(loaded.members[1].actions, [1, 0])
        assert path.read_bytes() == reference_mixture_text(mixture).encode()
        # Weights 2/3 and 1/3 need all 17 digits.
        members = [DeterministicPolicy([0, 1, 3]),
                   DeterministicPolicy([2, 0, 1])]
        thirds = MixturePolicy(members, [2, 1], [0.0, 0.0],
                               [np.zeros(1), np.zeros(1)])
        save_mixture(thirds, path)
        assert path.read_bytes() == reference_mixture_text(thirds).encode()
        assert "0,0.66666666666666663,0,0\n" in path.read_text()

    def test_interleaved_member_rows_load_as_contiguous(self, tmp_path):
        # Members 5, 2 and 9 over four states, their rows one member after
        # another and then shuffled.
        rows = [f"{i},{w},{x},{(i + x) % 4}\n"
                for i, w in ((5, 0.5), (2, 0.25), (9, 0.25)) for x in range(4)]
        shuffled = [rows[k] for k in np.random.default_rng(0).permutation(12)]
        loaded = []
        for name, body in (("c.csv", rows), ("s.csv", shuffled)):
            path = tmp_path / name
            path.write_text("member,weight,state,action\n" + "".join(body))
            loaded.append(load_policy(str(path), 4, 4))
        contiguous, interleaved = loaded
        assert contiguous.counts.tolist() == [250000000, 500000000, 250000000]
        assert interleaved.counts.tolist() == contiguous.counts.tolist()
        for a, b, i in zip(contiguous.members, interleaved.members, (2, 5, 9)):
            assert a.actions.tolist() == b.actions.tolist()
            assert a.actions.tolist() == [(i + x) % 4 for x in range(4)]

    def test_many_member_mixture(self, tmp_path):
        rng = np.random.default_rng(0)
        actions = rng.integers(0, 4, (2000, 64))
        counts = rng.integers(1, 50, 2000)
        mixture = MixturePolicy([DeterministicPolicy(a) for a in actions],
                                counts, [0.0] * 2000, [np.zeros(1)] * 2000)
        path = tmp_path / "m.csv"
        save_mixture(mixture, path)
        loaded = load_policy(str(path), 64, 4)
        assert np.array_equal([p.actions for p in loaded.members], actions)
        np.testing.assert_allclose(loaded.weights, mixture.weights,
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("weights,counts", [
        # 1e308 + 1e308 overflows; unscaled, all three loaded as 1/3.
        (["1e308", "1e308", "1"], [500000000, 500000000, 1]),
        (["3e300", "1e300"], [750000000, 250000000]),
        (["5e-324", "1e-323"], [333333333, 666666667]),
        (["0.25", "0.75"], [250000000, 750000000]),
    ])
    def test_mixture_weights_load_in_proportion(self, tmp_path, weights,
                                                counts):
        path = tmp_path / "m.csv"
        path.write_text("member,weight,state,action\n" + "".join(
            f"{i},{w},{x},0\n" for i, w in enumerate(weights)
            for x in range(2)))
        loaded = load_policy(str(path), 2, 2)
        assert loaded.counts.tolist() == counts

    def test_unknown_argument_exits_1(self):
        assert main(["collect", "--bogus"]) == 1
