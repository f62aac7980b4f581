#!/usr/bin/env python3
"""Compare two revisions on the end-to-end benchmark.

    python3 benchmark/compare.py <rev-a> <rev-b> [--workload NAME ...]
                                 [--seed N]

<rev-a> is the parent, <rev-b> the change. Each revision's src/ is exported
with `git archive` and built against this checkout's benchmark/, so both
sides run identical benchmark code, into build-bench/compare/<rev>/. Then
each workload runs in 10 pairs (seed N + i for pair i), alternating which
side runs first, at BENCHMARK.json's run_seconds, and every end-to-end
metric gets one row: each side's median and quartiles, B's pair wins, and a
verdict.

Verdicts, per the rules the benchmark was defined with:
  gain        B wins >= 9 of the 10 pairs (ties count for neither) and the
              medians differ by more than A's interquartile range;
  regression  B's median is worse than A's by more than the metric's bound;
  unresolved  A's own spread (IQR / median) exceeds the bound, unless every
              B run beats every A run;
  same        none of the above.
The ungated e2e.* outcomes (wall throughput and latency among them) have no
bound: they get `gain`, its mirror `loss`, or `-`. Any run that fails its
output check is reported and makes the exit status non-zero.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the sibling build/run helpers)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PAIRS = 10
OUTCOMES = [m for m in SPEC["per_layer"] if m["name"].startswith("e2e.")]


def prepare(rev):
    """Exports rev's src/ next to a copy of benchmark/ and builds it."""
    sha = subprocess.run(["git", "rev-parse", "--short=12", rev], cwd=run.ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    base = run.BUILD / "compare" / sha
    tree = base / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha, "src"], cwd=run.ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    shutil.copytree(run.ROOT / "benchmark", tree / "benchmark")
    if not run.build(build_dir=base / "build", source_dir=tree / "benchmark"):
        sys.exit(f"build of {rev} failed")
    return sha, base / "build" / "canopus_e2e"


def one_run(binary, workload, seed):
    """Returns (checked out, gated and outcome metrics by name)."""
    code, lines = run.run_workload(binary, workload, seed, 0, echo=False)
    metrics = {}
    result = None
    try:
        result = json.loads(lines[-1])
        metrics.update(result["metrics"])
        metrics.update(json.loads(lines[-2].split(":", 1)[1]))
    except (IndexError, KeyError, json.JSONDecodeError):
        pass
    return code == 0 and result is not None and result["correct"], metrics


def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(metric, a, b):
    lower = metric["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = statistics.median(b)
    wins = sum(better(y, x) for x, y in zip(a, b))
    losses = sum(better(x, y) for x, y in zip(a, b))
    separated = abs(b_med - a_med) > a_q3 - a_q1
    if wins >= 0.9 * PAIRS and separated and better(b_med, a_med):
        return wins, "gain"
    if "bound" not in metric:
        return wins, "loss" if losses >= 0.9 * PAIRS and separated else "-"
    worse_by = (b_med - a_med) if lower else (a_med - b_med)
    if a_med and worse_by > metric["bound"] * abs(a_med):
        return wins, "regression"
    if a_med and (a_q3 - a_q1) / abs(a_med) > metric["bound"]:
        if all(better(y, x) for x in a for y in b):
            return wins, "same"
        return wins, "unresolved"
    return wins, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workload or run.WORKLOADS

    sha_a, bin_a = prepare(args.rev_a)
    sha_b, bin_b = prepare(args.rev_b)
    failures = []
    for workload in workloads:
        runs = {"a": [], "b": []}
        for i in range(PAIRS):
            seed = args.seed + i
            order = [("a", bin_a), ("b", bin_b)]
            if i % 2:
                order.reverse()
            for side, binary in order:
                ok, metrics = one_run(binary, workload, seed)
                if not ok:
                    failures.append(f"{workload} seed {seed} side {side}")
                runs[side].append(metrics)
        print(f"\n{workload}: A={sha_a} B={sha_b}, {PAIRS} pairs, "
              f"{run.RUN_SECONDS} s windows")
        print(f"  {'metric':22s} {'A median [q1, q3]':>32s} "
              f"{'B median [q1, q3]':>32s}  wins  verdict")
        for metric in SPEC["end_to_end"] + OUTCOMES:
            name = metric["name"]
            a = [m[name]["value"] for m in runs["a"] if name in m]
            b = [m[name]["value"] for m in runs["b"] if name in m]
            if len(a) != PAIRS or len(b) != PAIRS:
                print(f"  {name:22s} missing values")
                continue
            wins, word = verdict(metric, a, b)
            fa = "{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(a))
            fb = "{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(b))
            print(f"  {name:22s} {fa:>32s} {fb:>32s}  {wins:2d}/{PAIRS}  {word}")
    if failures:
        print("\nruns that failed their output check: " + ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
