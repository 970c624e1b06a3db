"""Benchmark of the cbpl toolkit: one workload per process.

    python3 benchmarks/run.py --workload fitted-learn --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run sets up the workload's inputs several times, then
repeats the timed operation while another one fits in ``--seconds``, and
reports the end-to-end metrics: the median operation time ``op_s``, the
median set-up time ``setup_s`` and the peak resident set ``peak_rss_mb`` of
the process after the first operation. With ``--trace 1`` it sets up once
with tracing on, runs the operation once untraced and once traced, and
reports the per-layer metrics of the traced set-up and operation together
with the tracing overhead. Every output is checked against the benchmark's
own reference computations; the process exits 1 if any check fails.

The last line of standard output is the JSON result; the line before it
holds the samples, the environment and the facts the checks saw. Both go
to ``benchmarks/out/`` as well, with the spans of a traced run.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("fitted-learn", "exact-learn", "ope-compare", "data-roundtrip")
END_TO_END = (("op_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MiB", "lower"))
# setup_s is the median of SETUP_SAMPLES samples. One sample is the mean
# time of back-to-back set-ups that together last at least
# SETUP_SAMPLE_SECONDS: one collect for fitted-learn, thousands of map
# builds for exact-learn. A single sub-millisecond build runs at one of two
# speeds depending on the machine's state, so the median of single builds
# jumps between them; a mean over a second blends them.
SETUP_SAMPLES, SETUP_SAMPLE_SECONDS = 3, 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import cbpl from this checkout's ``src`` and nowhere else."""
    if not (SRC_DIR / "cbpl" / "__init__.py").is_file():
        raise ImportError(f"no cbpl sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import cbpl
    if SRC_DIR not in Path(cbpl.__file__).resolve().parents:
        raise ImportError(f"cbpl was imported from {cbpl.__file__}, not {SRC_DIR}")


def environment():
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": list(os.getloadavg())}


class Session:
    """One run of one workload: timings, outputs checked as they come, and
    the operation count."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []    # operations that raised
        self.failures = []  # checks that rejected an output
        self.facts = {}

    def operate(self, inputs):
        """Run the operation once and return its time, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output = self.workload.op(inputs, self.workdir)
        except Exception as exc:  # counted against attempted, reported below
            self.failed += 1
            self.errors.append(f"operation raised {type(exc).__name__}: {exc}")
            return None
        return time.perf_counter() - t0, output

    def check(self, inputs, output):
        if self.reference is None:
            self.reference = self.workload.reference(inputs)
        fails, self.facts = self.workload.check(inputs, self.reference, output)
        self.failures.extend(fails)


def measure(session, seed, seconds):
    """Untraced run: the end-to-end metrics and their samples."""
    setup_s, setup_counts, inputs = [], [], None
    for _ in range(SETUP_SAMPLES):
        count, t0 = 0, time.perf_counter()
        while count == 0 or time.perf_counter() - t0 < SETUP_SAMPLE_SECONDS:
            inputs = None  # hold one set of inputs at a time, so the peak is one set-up's
            inputs = session.workload.setup(seed)
            count += 1
        setup_s.append((time.perf_counter() - t0) / count)
        setup_counts.append(count)
    op_s = []
    peak_kib = None
    while True:
        done = session.operate(inputs)
        if peak_kib is None:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if done is None:
            break
        op_s.append(done[0])
        session.check(inputs, done[1])
        del done
        if sum(op_s) + statistics.median(op_s) > seconds:
            break
    if not op_s:
        return {}, {"setup_s": setup_s, "setups_per_sample": setup_counts}
    metrics = {"op_s": statistics.median(op_s), "setup_s": statistics.median(setup_s),
               "peak_rss_mb": peak_kib / 1024.0}
    return ({name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END},
            {"op_s": op_s, "setup_s": setup_s, "setups_per_sample": setup_counts})


def measure_traced(session, seed, trace_path):
    """Traced run: one traced set-up, one untraced and one traced operation."""
    import tracer

    rec = tracer.Tracer()
    with rec.recording("bench.setup"):
        inputs = session.workload.setup(seed)
    plain = session.operate(inputs)
    if plain is not None:
        session.check(inputs, plain[1])
        plain = plain[0]
    with rec.recording("bench.op"):
        traced = session.operate(inputs)
    rec.write(trace_path)
    if plain is None or traced is None:
        return {}, {}
    session.check(inputs, traced[1])
    metrics = tracer.layer_metrics(rec.spans, traced[0] - plain, plain)
    return metrics, {"op_s_untraced": plain, "op_s_traced": traced[0],
                     "spans": len(rec.spans)}


def main(argv=None):
    args = parse_args(argv)
    # Set before numpy loads, so BLAS and OpenMP run one thread in this process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_program()
    except ImportError as exc:
        print(f"benchmark cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        session = Session(workloads.WORKLOADS[args.workload], Path(tmp))
        if args.trace:
            metrics, samples = measure_traced(session, args.seed,
                                              OUT_DIR / f"{stem}-spans.jsonl")
        else:
            metrics, samples = measure(session, args.seed, args.seconds)
    env["loadavg_end"] = list(os.getloadavg())
    result = {"correct": not session.failures and bool(metrics), "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "samples": samples,
              "facts": session.facts, "errors": session.errors,
              "failures": session.failures, "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for message in session.errors + session.failures:
        print(message, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
