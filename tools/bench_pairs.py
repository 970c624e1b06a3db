"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_9.json \\
        --workload data-roundtrip --pairs 10 --seed 1

Each pair runs ``benchmarks/run.py`` (untraced) once on a copy of the parent
commit, made with ``git archive`` in a temporary directory, and once on the
working tree, alternating which side goes first. The file named by ``--out``
gets, per workload and seed, every run's end-to-end metrics and each side's
median and quartiles, the number of pairs the change won (ties count for
neither), and whether the change's median beats the parent's by more than
the parent's interquartile range. Runs already in the file under another
workload or seed are kept, so several invocations build one file. The
machine (``nproc``, Python and numpy versions) and the load average at the
start and end of each run are recorded with the runs.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision to compare against (default HEAD)")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    return parser.parse_args(argv)


def export(revision, dest):
    """Write the files of a commit into dest, as git archive gives them."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run; returns its detail record."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{tree}: {workload} printed no result\n{proc.stderr}")
    return json.loads(lines[-2])


def summarize(parent_runs, change_runs, metrics):
    """Medians, quartiles and wins of each end-to-end metric."""
    out = {}
    for name, better in metrics.items():
        sides = {}
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            sides[side] = {"median": median, "q1": q1, "q3": q3, "values": values}
        sign = -1.0 if better == "lower" else 1.0
        diffs = [sign * (c - p) for p, c in zip(sides["parent"]["values"],
                                                sides["change"]["values"])]
        gain = sign * (sides["change"]["median"] - sides["parent"]["median"])
        out[name] = {**sides, "change_wins": sum(d > 0 for d in diffs),
                     "parent_wins": sum(d < 0 for d in diffs),
                     "gain_beyond_parent_iqr":
                         gain > sides["parent"]["q3"] - sides["parent"]["q1"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                                check=True, capture_output=True, text=True).stdout.strip()
    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        export(parent_rev, tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    detail = run_once(trees[side], workload, args.seed, args.seconds)
                    runs[side].append(detail)
                    print(f"{workload} pair {pair + 1}/{args.pairs} {side}: "
                          f"{json.dumps(detail['result'])}", flush=True)
            env = runs["change"][0]["env"]
            report["workloads"][f"{workload} seed {args.seed}"] = {
                "pairs": args.pairs, "seconds": args.seconds,
                "parent": parent_rev,
                "machine": {k: env[k] for k in ("nproc", "python", "numpy")},
                "metrics": summarize(runs["parent"], runs["change"], metrics),
                "runs": {side: [{"result": d["result"], "loadavg": d["env"]["loadavg"],
                                 "loadavg_end": d["env"]["loadavg_end"]}
                                for d in side_runs]
                         for side, side_runs in runs.items()},
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
