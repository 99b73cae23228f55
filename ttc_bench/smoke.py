#!/usr/bin/env python3
"""Smoke test of ttc_bench (the ctest case smoke.ttc_bench).

Runs every workload untraced and traced at toy size (SF-2, 60 change sets,
daemon writes at 200 cs/s) and asserts that each run exits 0 with every
answer correct and no failed operation, that it prints every metric
BENCHMARK.json names for its mode, and that the daemon's trace passes
tools/lint_invariants.py --check-trace. Scratch files go to ./smoke-out.

    python3 ttc_bench/smoke.py --bench .bench_build/ttc_bench
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import check_trace, parse  # noqa: E402


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True, help="ttc_bench binary")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out_dir = os.path.abspath("smoke-out")
    os.makedirs(out_dir, exist_ok=True)

    failures = []
    for w in (x["name"] for x in bench["workloads"]):
        for traced in (False, True):
            label = f"{w} ({'traced' if traced else 'untraced'})"
            cmd = [os.path.abspath(args.bench), f"--workload={w}", "--seed=7",
                   "--seconds=1", "--toy"]
            trace = os.path.join(out_dir, f"{w}.trace.json")
            if traced:
                cmd.append(f"--trace={trace}")
            proc = subprocess.run(cmd, cwd=out_dir, stdout=subprocess.PIPE,
                                  text=True, timeout=300)
            metrics, tally = parse(proc.stdout)
            if proc.returncode != 0 or tally is None:
                failures.append(f"{label}: exit {proc.returncode}")
                continue
            if tally["correct"] != "1" or tally["failed"] != "0":
                failures.append(f"{label}: tally {tally}")
            wanted = bench["per_layer" if traced else "end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in metrics]
            if missing:
                failures.append(f"{label}: missing {missing}")
            if traced and w == "daemon-mixed" and not check_trace(trace):
                failures.append(f"{label}: daemon trace failed --check-trace")
            print(f"smoke: {label}: {len(metrics)} metrics", file=sys.stderr)
    for f in failures:
        print(f"smoke: FAIL {f}", file=sys.stderr)
    print("smoke.ttc_bench:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
