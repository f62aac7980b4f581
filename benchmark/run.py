#!/usr/bin/env python3
"""Build the end-to-end benchmark and run its workloads.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                             [--smoke]

Run from the repository root. Builds benchmark/ (and the library it pulls
in from src/) as a Release tree under build-bench/, then runs each chosen
workload in its own process. With --workload the workload's own output is
passed through and its last line is the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Without --workload every workload runs in turn and the last line maps each
workload to its result. --seed selects the inputs only. Every window lasts
BENCHMARK.json's run_seconds, the length its bounds were measured at;
--seconds may repeat that value (callers pass it) but not change it.
--smoke shortens the windows to a tenth, with one set-up instead of three,
for a quick sanity pass; --trace runs the traced variant, which reports the
per-layer metrics and writes a JSON table and a Chrome trace under
build-bench/out/.

Exit status: 0 when every run checked out, the failing run's code otherwise
(1 wrong output or failed op, 2 bad arguments, 3 hung), and 1 when the
build fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "canopus_e2e"
WORKLOADS = ["ingest", "scan", "explore", "campaign", "overload"]
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# One run must end within 180 s; set-up, the window and the checks fit well
# inside this.
RUN_TIMEOUT_S = 170


def build(build_dir=BUILD, source_dir=ROOT / "benchmark"):
    """Configures (once) and builds the benchmark; returns True on success."""
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    # Configure unless an earlier configure completed (it leaves a build file).
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(source_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "canopus_e2e",
                  "--parallel", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                print(f"build failed; full log in {log_path}", file=sys.stderr)
                return False
    return True


def run_workload(binary, workload, seed, trace, smoke=False, echo=True):
    """Runs one workload process; returns (exit code, stdout lines)."""
    seconds = RUN_SECONDS / 10 if smoke else RUN_SECONDS
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--setups={1 if smoke else 3}", f"--out={BUILD / 'out'}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    lines = []

    def pump():
        for line in proc.stdout:
            if echo:
                print(line, end="", flush=True)
            lines.append(line.strip())

    reader = threading.Thread(target=pump)
    reader.start()
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        reader.join()
        print(f"hung: {workload}", flush=True)
        return 3, []
    reader.join()
    return proc.returncode, [line for line in lines if line]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="tenth-length windows and one set-up")
    args = parser.parse_args()
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds is fixed at BENCHMARK.json's run_seconds "
                     f"({RUN_SECONDS})")

    if not build():
        return 1
    if args.workload:
        code, _ = run_workload(BINARY, args.workload, args.seed, args.trace,
                               args.smoke)
        return code

    results = {}
    worst = 0
    for workload in WORKLOADS:
        print(f"=== {workload}", flush=True)
        code, lines = run_workload(BINARY, workload, args.seed, args.trace,
                                   args.smoke)
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[workload] = None
        worst = worst or code
    print("\n=== summary")
    for workload, result in results.items():
        if result is None:
            print(f"{workload:10s} no result")
            continue
        metrics = ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                            for k, v in result["metrics"].items())
        print(f"{workload:10s} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}: "
              f"{metrics}")
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
