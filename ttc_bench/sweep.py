#!/usr/bin/env python3
"""Runs the benchmark once per (workload, seed) and records every run.

    python3 ttc_bench/sweep.py --out runs.json --seeds 1-10
    python3 ttc_bench/sweep.py --root ../parent --out parent.json \\
                               --root . --out change.json --seeds 1-10

Each run is `run.py` of a --root checkout (default: the one holding this
script) in a process of its own, with BENCHMARK.json's run_seconds. With two
roots the order alternates from seed to seed, which gives compare.py its
alternating pairs. Each --out file holds {"runs": {workload: [run, ...]}}
in seed order; a run is run.py's JSON object plus its "seed" (a run that
printed no result is recorded as {"seed": N, "correct": false}). The spread
summary of compare.py is printed for every file at the end.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("ttc_bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run = {"correct": False}
    run["seed"] = seed
    return run


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", action="append",
                    help="checkout to run (repeat for alternating pairs)")
    ap.add_argument("--out", action="append", required=True,
                    help="result file, one per --root")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    help="comma-separated (default: all of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    roots = [os.path.abspath(r) for r in (args.root or [os.path.dirname(HERE)])]
    if len(roots) != len(args.out):
        ap.error("give one --out per --root")
    with open(os.path.join(roots[0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    results = [{"runs": {w: [] for w in workloads}} for _ in roots]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = list(range(len(roots)))
        if i % 2 == 1:
            order.reverse()
        for w in workloads:
            for k in order:
                run = run_once(roots[k], w, seed, bench["run_seconds"],
                               args.trace)
                results[k]["runs"][w].append(run)
                print(f"sweep: {os.path.basename(roots[k])} {w} seed {seed}: "
                      f"correct={run.get('correct')}", file=sys.stderr)
    for path, res in zip(args.out, results):
        with open(path, "w") as f:
            json.dump(res, f, indent=1)
        print(f"== {path}")
        compare.print_spreads(res, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
