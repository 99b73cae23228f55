#!/usr/bin/env python3
"""Benchmark entry point (the `command` of BENCHMARK.json).

Builds ttc_bench and grb_daemon from this checkout's sources into
.bench_build/, runs one workload, and prints the run as one JSON object on
the last line of standard output:

    python3 ttc_bench/run.py --workload ttc-insert --seed 7 --seconds 20 \
        --trace 0

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {name: {"value": V, "unit": U}}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced replay
and reports the per-layer metrics (for daemon-mixed it also validates the
daemon's Chrome trace with tools/lint_invariants.py --check-trace). The
metric lines of ttc_bench itself are echoed above the JSON. Exits 1, with no
JSON, when the build or the run fails, and 1 after the JSON when an answer
differed from the oracle.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ttc-insert", "ttc-removal", "sharded-stream", "daemon-mixed")
# A run measures --seconds, plus set-up, warm-up and the oracle; anything
# near this limit is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark (both incremental after the first
    run); cmake's own output goes to stderr. Serialised by a lock so
    concurrent runs share one build."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "ttc_bench", "-j", jobs],
            stdout=sys.stderr, check=True)


def parse(stdout):
    """ttc_bench's `name value unit` lines and its tally line."""
    metrics = {}
    tally = None
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "tally":
            tally = dict(p.split("=", 1) for p in parts[1:])
        elif len(parts) == 3:
            metrics[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    return metrics, tally


def check_trace(path):
    """True when the daemon's trace passes the repository's trace checker."""
    checker = os.path.join(ROOT, "tools", "lint_invariants.py")
    proc = subprocess.run([sys.executable, checker, "--check-trace", path],
                          stdout=sys.stderr)
    return proc.returncode == 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "ttc_bench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}"]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(
            BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
        cmd.append(f"--trace={trace_path}")
    try:
        proc = subprocess.run(cmd, cwd=BUILD, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: ttc_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    metrics, tally = parse(proc.stdout)
    sys.stdout.write(proc.stdout)
    if tally is None:
        print(f"run.py: ttc_bench exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1

    correct = tally["correct"] == "1" and proc.returncode == 0
    if trace_path and args.workload == "daemon-mixed":
        correct = check_trace(trace_path) and correct
    result = {
        "correct": correct,
        "attempted": int(tally["attempted"]),
        "failed": int(tally["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
