"""Spans around the calls into each cbpl layer, recorded from outside the
program.

``Tracer.install`` replaces public functions at the module attributes where
their callers look them up (``cbpl.learner.fqi``, ``cbpl.batchrl.
fit_least_squares``, ``cbpl.ope.subsample``, ``ExactSolver.best_response``,
...) with wrappers that record a span (name, start, end, parent, attributes)
in memory; ``uninstall`` puts the originals back. ``layer_metrics`` turns the
spans into the per-layer metrics. A span's self time is its duration minus
the time its child spans cover.
"""

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("dataset.collect_s", "s", "lower"),
    ("dataset.collect_steps_per_s", "1/s", "higher"),
    ("dataset.save_s", "s", "lower"),
    ("dataset.save_mb_per_s", "MB/s", "higher"),
    ("dataset.load_s", "s", "lower"),
    ("dataset.load_mb_per_s", "MB/s", "higher"),
    ("dataset.csv_mb", "MB", "lower"),
    ("dataset.subsample_calls", "count", "lower"),
    ("dataset.subsample_s", "s", "lower"),
    ("funcapprox.fit_calls", "count", "lower"),
    ("funcapprox.fit_rows", "count", "lower"),
    ("funcapprox.fit_s", "s", "lower"),
    ("batchrl.fqi_calls", "count", "lower"),
    ("batchrl.fqi_self_s", "s", "lower"),
    ("batchrl.fqi_sweep_ms", "ms", "lower"),
    ("batchrl.fqe_calls", "count", "lower"),
    ("batchrl.fqe_self_s", "s", "lower"),
    ("batchrl.fqe_sweep_ms", "ms", "lower"),
    ("onlineopt.update_calls", "count", "lower"),
    ("onlineopt.update_s", "s", "lower"),
    ("oracle.best_response_calls", "count", "lower"),
    ("oracle.best_response_s", "s", "lower"),
    ("oracle.policy_solves", "count", "lower"),
    ("oracle.q_cache_hit_ratio", "ratio", "higher"),
    ("learner.rounds", "count", "lower"),
    ("learner.rounds_per_s", "1/s", "higher"),
    ("learner.self_s", "s", "lower"),
    ("learner.trace_rows", "count", "lower"),
    ("learner.eval_cache_hit_ratio", "ratio", "higher"),
    ("ope.pdis_calls", "count", "lower"),
    ("ope.pdis_s", "s", "lower"),
    ("ope.dr_s", "s", "lower"),
    ("ope.wdr_s", "s", "lower"),
    ("ope.trial_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder with wrappers around cbpl's layer calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, attrs]
        self._open = []
        self._patches = []
        self._solved = set()  # (solver, policy bytes) seen by policy_channel_q

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name)
            if before is not None:
                before(span[4], args)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span[4], args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _note_solve(self, attrs, args):
        key = (args[0], args[1].tobytes())
        attrs["hit"] = key in self._solved
        self._solved.add(key)

    def install(self):
        """Wrap the layer boundaries; every caller inside cbpl looks these
        names up at call time, so the wrappers see every call."""
        from cbpl import batchrl, dataset, learner, ope, oracle

        def record(**fields):
            def after(attrs, args, result):
                attrs.update({k: f(args, result) for k, f in fields.items()})
            return after

        w = self._wrap
        w(dataset, "collect", "dataset.collect", after=record(rows=lambda a, r: len(r)))
        w(dataset, "save", "dataset.save",
          after=record(bytes=lambda a, r: os.path.getsize(a[1])))
        w(dataset, "load", "dataset.load",
          after=record(bytes=lambda a, r: os.path.getsize(a[0])))
        w(ope, "subsample", "dataset.subsample")
        w(batchrl, "fit_least_squares", "funcapprox.fit",
          after=record(rows=lambda a, r: len(a[1])))
        k_of_run = record(K=lambda a, r: r[1].K)
        w(learner, "fqi", "batchrl.fqi", after=k_of_run)
        w(learner, "fqe", "batchrl.fqe", after=k_of_run)
        w(ope, "fqe", "batchrl.fqe", after=k_of_run)
        w(learner, "eg_update", "onlineopt.update")
        w(learner, "ogd_update", "onlineopt.update")
        w(oracle.ExactSolver, "best_response", "oracle.best_response")
        w(oracle.ExactSolver, "policy_channel_q", "oracle.policy_channel_q",
          before=self._note_solve)
        w(learner, "run", "learner.run", after=record(
            rounds=lambda a, r: r[1].total_rounds,
            trace_rows=lambda a, r: len(r[1].rounds),
            fitted=lambda a, r: a[1].subroutine_flavor == "fitted",
            m=lambda a, r: len(a[1].tau)))
        w(ope, "pdis", "ope.pdis")
        w(ope, "doubly_robust", "ope.dr")
        w(ope, "weighted_doubly_robust", "ope.wdr")
        w(ope, "ope_comparison", "ope.comparison",
          after=record(trials=lambda a, r: len(r) // 4))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def recording(self, name):
        """Trace the enclosed calls under one root span."""
        self.install()
        span = self.begin(name)
        try:
            yield
        finally:
            self.end(span)
            self.uninstall()

    def write(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "attrs": attrs}) + "\n")


def layer_metrics(spans, overhead_s, untraced_op_s):
    """Per-layer metrics from one traced set-up and operation. A layer the
    workload never calls reads 0."""
    covered = defaultdict(float)
    for name, start, end, parent, attrs in spans:
        if parent is not None:
            covered[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    sums = defaultdict(float)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - covered[i]
        for key, value in attrs.items():
            sums[name, key] += value

    def rate(num, den):
        return num / den if den > 0 else 0.0

    fitted_runs = {i: s[4] for i, s in enumerate(spans)
                   if s[0] == "learner.run" and s[4]["fitted"]}
    fqe_misses = sum(1 / (1 + fitted_runs[s[3]]["m"]) for s in spans
                     if s[0] == "batchrl.fqe" and s[3] in fitted_runs)
    lookups = sum(2 * attrs["rounds"] for attrs in fitted_runs.values())
    hits = sums["oracle.policy_channel_q", "hit"]
    values = {
        "dataset.collect_s": total["dataset.collect"],
        "dataset.collect_steps_per_s": rate(sums["dataset.collect", "rows"],
                                            total["dataset.collect"]),
        "dataset.save_s": total["dataset.save"],
        "dataset.save_mb_per_s": rate(sums["dataset.save", "bytes"] / 1e6,
                                      total["dataset.save"]),
        "dataset.load_s": total["dataset.load"],
        "dataset.load_mb_per_s": rate(sums["dataset.load", "bytes"] / 1e6,
                                      total["dataset.load"]),
        "dataset.csv_mb": rate(sums["dataset.save", "bytes"] / 1e6,
                               calls["dataset.save"]),
        "dataset.subsample_calls": calls["dataset.subsample"],
        "dataset.subsample_s": total["dataset.subsample"],
        "funcapprox.fit_calls": calls["funcapprox.fit"],
        "funcapprox.fit_rows": sums["funcapprox.fit", "rows"],
        "funcapprox.fit_s": total["funcapprox.fit"],
        "batchrl.fqi_calls": calls["batchrl.fqi"],
        "batchrl.fqi_self_s": own["batchrl.fqi"],
        "batchrl.fqi_sweep_ms": rate(1e3 * total["batchrl.fqi"], sums["batchrl.fqi", "K"]),
        "batchrl.fqe_calls": calls["batchrl.fqe"],
        "batchrl.fqe_self_s": own["batchrl.fqe"],
        "batchrl.fqe_sweep_ms": rate(1e3 * total["batchrl.fqe"], sums["batchrl.fqe", "K"]),
        "onlineopt.update_calls": calls["onlineopt.update"],
        "onlineopt.update_s": total["onlineopt.update"],
        "oracle.best_response_calls": calls["oracle.best_response"],
        "oracle.best_response_s": total["oracle.best_response"],
        "oracle.policy_solves": calls["oracle.policy_channel_q"] - hits,
        "oracle.q_cache_hit_ratio": rate(hits, calls["oracle.policy_channel_q"]),
        "learner.rounds": sums["learner.run", "rounds"],
        "learner.rounds_per_s": rate(sums["learner.run", "rounds"], total["learner.run"]),
        "learner.self_s": own["learner.run"],
        "learner.trace_rows": sums["learner.run", "trace_rows"],
        "learner.eval_cache_hit_ratio": 1.0 - fqe_misses / lookups if lookups else 0.0,
        "ope.pdis_calls": calls["ope.pdis"],
        "ope.pdis_s": total["ope.pdis"],
        "ope.dr_s": total["ope.dr"],
        "ope.wdr_s": total["ope.wdr"],
        "ope.trial_ms": rate(1e3 * total["ope.comparison"], sums["ope.comparison", "trials"]),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": rate(overhead_s, untraced_op_s),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
