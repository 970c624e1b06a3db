"""Tests of the benchmark's own checks: each rejects a deliberately wrong
output and passes on correct outputs at a seed other than the default.

    python3 -m pytest -q benchmarks

The fixtures run the real ope-compare and data-roundtrip operations, and
one test runs fitted-learn and exact-learn end to end, so the file takes
half a minute to two minutes, depending on the machine's speed.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from cbpl import learner, mdp  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7  # not the default seed 1


@pytest.fixture(scope="module")
def model():
    return oracles.GridModel(mdp.FROZENLAKE_8X8, wl.GAMMA)


@pytest.fixture(scope="module")
def c_star(model):
    return oracles.constrained_optimum(model, wl.TAU)


@pytest.fixture(scope="module")
def ope_run():
    inputs = wl.WORKLOADS["ope-compare"].setup(SEED)
    rows = wl.WORKLOADS["ope-compare"].op(inputs, None)
    return inputs, wl.WORKLOADS["ope-compare"].reference(inputs), rows


@pytest.fixture(scope="module")
def roundtrip_run(tmp_path_factory):
    workload = wl.WORKLOADS["data-roundtrip"]
    inputs = workload.setup(SEED)
    collected, loaded, path = workload.op(inputs, tmp_path_factory.mktemp("roundtrip"))
    ref = workload.reference(inputs)
    workload.check(inputs, ref, (collected, loaded, path))
    return oracles.dataset_columns(collected), oracles.dataset_columns(loaded), ref["digests"]


def test_reference_model_matches_program_map(model):
    fl = mdp.build_frozenlake(mdp.FROZENLAKE_8X8, gamma=wl.GAMMA)
    assert np.array_equal(np.argmax(fl.transition, axis=2), model.next_state)
    assert np.array_equal(fl.transition, model.transition())
    assert np.array_equal(fl.cost_c, model.cost_c)
    assert np.array_equal(fl.cost_g[:, :, 0], model.cost_g)
    assert np.array_equal(fl.terminal_mask, model.terminal)
    assert fl.initial_dist[model.start] == 1.0


def _walk_into_hole(model):
    """East along the top row to column 3, then south into the hole at (2, 3)."""
    actions = np.full(model.num_states, 1)
    actions[[0, 1, 2]] = 2
    return mdp.DeterministicPolicy(actions)


def test_fitted_check_rejects_unsafe_mixture(model, c_star):
    converged = SimpleNamespace(converged=True, gap=np.array([0.04]),
                                termination_reason="gap <= omega")
    unsafe = learner.MixturePolicy([_walk_into_hole(model)], [1], [0.0], [np.zeros(1)])
    assert oracles.policy_values(model, unsafe.members[0].actions)[1] > wl.TAU + 0.01
    fails = oracles.check_fitted(model, c_star, unsafe, converged, wl.OMEGA, wl.TAU)
    assert any("exact G" in f for f in fails)

    not_converged = SimpleNamespace(converged=False, gap=np.array([0.3]),
                                    termination_reason="max_rounds reached")
    fails = oracles.check_fitted(model, c_star, unsafe, not_converged, wl.OMEGA, wl.TAU)
    assert any("did not converge" in f for f in fails)


@pytest.fixture(scope="module")
def short_exact_run():
    """An exact run at eta = 50: it converges in a few hundred rounds."""
    config = learner.LearnerConfig(B=wl.B, eta=50.0, omega=wl.OMEGA, tau=[wl.TAU],
                                   subroutine_flavor="exact")
    fl = mdp.build_frozenlake(mdp.FROZENLAKE_8X8, gamma=wl.GAMMA)
    return learner.run(None, config, mdp_handle=fl)


def test_exact_check_rejects_trace_row_above_regret_bound(model, c_star, short_exact_run):
    mixture, trace = short_exact_run
    args = (wl.B, 50.0, wl.OMEGA, wl.TAU, wl.G_BAR, wl.EXACT_CAP)
    assert oracles.check_exact(model, c_star, mixture, trace, *args) == []

    bound = oracles.regret_gap_bound(wl.B, 50.0, wl.G_BAR, trace.rounds)
    raise_by = np.zeros(len(trace.gap))
    raise_by[len(raise_by) // 2] = bound[len(raise_by) // 2] - trace.gap[len(raise_by) // 2] + 1e-6
    above = dataclasses.replace(trace, gap=trace.gap + raise_by, l_max=trace.l_max + raise_by)
    fails = oracles.check_exact(model, c_star, mixture, above, *args)
    assert any("regret bound" in f for f in fails)

    l_mid = trace.l_mid.copy()
    l_mid[0] = trace.l_min[0] - 1e-6
    fails = oracles.check_exact(model, c_star, mixture,
                                dataclasses.replace(trace, l_mid=l_mid), *args)
    assert any("l_max >= l_mid >= l_min" in f for f in fails)

    unsafe = learner.MixturePolicy([_walk_into_hole(model)], [1], [0.0], [np.zeros(1)])
    fails = oracles.check_exact(model, c_star, unsafe, trace, *args)
    assert any("exact mixture C" in f for f in fails)


def test_ope_check_passes_on_another_seed(ope_run):
    inputs, ref, rows = ope_run
    assert wl.WORKLOADS["ope-compare"].check(inputs, ref, rows)[0] == []


def _shift(rows, method, fraction, delta, exact):
    out = []
    for name, frac, trial, est, err in rows:
        if name == method and frac == fraction and trial == 0:
            est += delta
            err = abs(est - exact)
        out.append((name, frac, trial, est, err))
    return out


def test_ope_check_rejects_pdis_off_by_1e_6(ope_run):
    _, ref, rows = ope_run
    shifted = _shift(rows, "pdis", 1.0, 1e-6, ref["exact"])
    fails = oracles.check_ope(shifted, wl.OPE_FRACTIONS, wl.OPE_TRIALS,
                              ref["estimates"], ref["exact"])
    assert len(fails) == 1 and "pdis trial 0" in fails[0]


def test_ope_check_rejects_fqe_far_from_exact_and_missing_rows(ope_run):
    _, ref, rows = ope_run
    estimates = dict(ref["estimates"], fqe=ref["estimates"]["fqe"] + 0.05)
    shifted = _shift(rows, "fqe", 1.0, 0.05, ref["exact"])
    fails = oracles.check_ope(shifted, wl.OPE_FRACTIONS, wl.OPE_TRIALS, estimates, ref["exact"])
    assert any("more than 0.02 from exact" in f for f in fails)
    fails = oracles.check_ope(rows[:-1], wl.OPE_FRACTIONS, wl.OPE_TRIALS,
                              ref["estimates"], ref["exact"])
    assert any("expected" in f for f in fails)


def test_roundtrip_check_passes_on_another_seed(model, roundtrip_run):
    collected, loaded, digests = roundtrip_run
    assert oracles.check_roundtrip(model, collected, loaded, digests,
                                   wl.ROUNDTRIP_TRAJECTORIES, wl.HORIZON) == []


def _changed(cols, name, row, value):
    out = {k: v.copy() for k, v in cols.items()}
    out[name][row] = value
    return out


def test_roundtrip_check_rejects_loaded_dataset_with_one_field_changed(model, roundtrip_run):
    collected, loaded, digests = roundtrip_run
    n, h = wl.ROUNDTRIP_TRAJECTORIES, wl.HORIZON
    for name, value in (("x_next", loaded["x_next"][5] + 1), ("t", loaded["t"][5] + 1),
                        ("behavior_prob", loaded["behavior_prob"][5] * 0.5),
                        ("done", not loaded["done"][5])):
        wrong = _changed(loaded, name, 5, value)
        fails = oracles.check_roundtrip(model, collected, wrong, digests, n, h)
        assert fails == [f"loaded dataset differs from the collected one in ['{name}']"]


def test_roundtrip_check_rejects_rows_inconsistent_with_the_map(model, roundtrip_run):
    collected, _, digests = roundtrip_run
    n, h = wl.ROUNDTRIP_TRAJECTORIES, wl.HORIZON
    cases = {
        "x_next": ("x_next", model.next_state[collected["x"][3], collected["a"][3]] ^ 1),
        "goal": ("c", -1.0 - collected["c"][3]),
        "done": ("done", not collected["done"][3]),
        "start state": ("x", collected["x"][0] + 1),
    }
    for expect, (name, value) in cases.items():
        wrong = _changed(collected, name, 3 if name != "x" else 0, value)
        fails = oracles.check_roundtrip(model, wrong, wrong, digests, n, h)
        assert any(expect in f for f in fails), (expect, fails)
    bp = _changed(collected, "behavior_prob", 0, collected["behavior_prob"][0] * 0.5)
    assert any("behavior_prob" in f for f in
               oracles.check_roundtrip(model, bp, bp, digests, n, h))
    assert any("bytes differ" in f for f in
               oracles.check_roundtrip(model, collected, collected,
                                       digests + ["0" * 64], n, h))


@pytest.mark.parametrize("name", ["fitted-learn", "exact-learn"])
def test_learn_workloads_pass_on_another_seed(name, capsys):
    assert run.main(["--workload", name, "--seed", str(SEED), "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0


def test_layer_self_time_subtracts_child_spans():
    spans = [["learner.run", 0.0, 10.0, None, {"rounds": 5, "trace_rows": 5,
                                                "fitted": True, "m": 1}],
             ["batchrl.fqi", 1.0, 7.0, 0, {"K": 100}],
             ["funcapprox.fit", 2.0, 4.0, 1, {"rows": 10}],
             ["batchrl.fqe", 7.0, 8.0, 0, {"K": 100}],
             ["batchrl.fqe", 8.0, 9.0, 0, {"K": 100}]]
    m = {k: v["value"] for k, v in tracer.layer_metrics(spans, 0.5, 10.0).items()}
    assert m["learner.self_s"] == 10.0 - 6.0 - 1.0 - 1.0
    assert m["batchrl.fqi_self_s"] == 4.0
    assert m["batchrl.fqi_sweep_ms"] == 60.0
    assert m["learner.eval_cache_hit_ratio"] == 1.0 - (2 / 2) / (2 * 5)
    assert m["trace.overhead_share"] == 0.05


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(wl.WORKLOADS)
    def listed(key):
        return [(m["name"], m["unit"], m["better"]) for m in spec[key]]

    assert listed("end_to_end") == list(run.END_TO_END)
    assert listed("per_layer") == list(tracer.PER_LAYER)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                           "data-roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
