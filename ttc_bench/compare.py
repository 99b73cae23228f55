#!/usr/bin/env python3
"""Compares two recorded run sets of the benchmark, or summarises one.

    python3 ttc_bench/compare.py parent.json change.json
    python3 ttc_bench/compare.py runs.json
    python3 ttc_bench/compare.py --self-test

Run sets are sweep.py output files; bounds and directions come from
BENCHMARK.json (--benchmark, default: the one next to this directory). For
each workload and end-to-end metric the comparison prints both sides'
medians and quartiles, the share of pairs the change wins (runs pair up by
position, which is seed order; ties count for neither side) and a verdict:

  unresolved  either side's spread (interquartile range / median) is wider
              than the bound, and not every change run reads better than
              every parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  improved    the change wins at least 9 of 10 pairs and its median is
              better by more than the parent's interquartile range;
  unchanged   otherwise.

A rise in the error rate (failed / attempted operations) or any run that was
not correct is flagged. Exits 1 when a metric regressed or a flag was raised.
With one file, prints each metric's median and spread against a third of its
bound, the steadiness the benchmark aims for. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def better(direction, a, b):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    """Returns (verdict, pair-win share) for one workload x metric."""
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(direction, c, p))
    share = wins / len(pairs) if pairs else 0.0
    every_run_better = all(better(direction, c, p)
                           for c in change for p in parent)
    gap = c_med - p_med if direction == "lower" else p_med - c_med
    worse_share = gap / p_med if p_med else float("inf")
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved", share
    if worse_share > bound:
        return "regressed", share
    if pairs and wins >= 0.9 * len(pairs) and -gap > p_q3 - p_q1:
        return "improved", share
    return "unchanged", share


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r.get("metrics", {})]


def error_rate(runs):
    rates = [r["failed"] / r["attempted"] for r in runs
             if r.get("attempted")]
    return statistics.mean(rates) if rates else 0.0


def compare(parent, change, bench, out=sys.stdout):
    """Prints the comparison; returns the list of problems found."""
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        p_runs = parent["runs"].get(name, [])
        c_runs = change["runs"].get(name, [])
        print(f"== {name} ({len(p_runs)} parent / {len(c_runs)} change runs)",
              file=out)
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            bad = [r.get("seed") for r in runs if not r.get("correct")]
            if bad:
                problems.append(f"{name}: {side} runs not correct: {bad}")
        p_err, c_err = error_rate(p_runs), error_rate(c_runs)
        if c_err > p_err:
            problems.append(f"{name}: error rate rose {p_err:.3g} -> "
                            f"{c_err:.3g}")
        for m in bench["end_to_end"]:
            p = values(p_runs, m["name"])
            c = values(c_runs, m["name"])
            if not p or not c:
                problems.append(f"{name}: {m['name']} missing")
                continue
            v, share = verdict(p, c, m["better"], m["bound"])
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {m['name']:<18} parent {pq[1]:.4g} [{pq[0]:.4g}, "
                  f"{pq[2]:.4g}]  change {cq[1]:.4g} [{cq[0]:.4g}, "
                  f"{cq[2]:.4g}] {m['unit']}  wins {share:.0%}  {v}",
                  file=out)
            if v == "regressed":
                problems.append(f"{name}: {m['name']} regressed")
    for p in problems:
        print(f"FLAG {p}", file=out)
    return problems


def print_spreads(res, bench, out=sys.stdout):
    """Median and spread of every recorded metric, per workload. End-to-end
    metrics are marked against a third of their bound."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, runs in res["runs"].items():
        bad = sum(1 for r in runs if not r.get("correct"))
        print(f"== {name}: {len(runs)} runs, {bad} not correct, error rate "
              f"{error_rate(runs):.3g}", file=out)
        names = sorted({m for r in runs for m in r.get("metrics", {})})
        for m in names:
            v = values(runs, m)
            s = spread(v)
            mark = ""
            if m in bounds:
                mark = ("ok" if s < bounds[m] / 3 else "WIDE") + \
                       f" (bound {bounds[m]:.2f})"
            print(f"  {m:<32} median {statistics.median(v):<12.5g} "
                  f"spread {s:7.2%}  {mark}", file=out)


def self_test():
    """Synthetic run sets covering each verdict and both flags."""
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "lat", "unit": "ms", "better": "lower",
                        "bound": 0.10}],
    }

    def runs(vals, failed=0):
        return {"runs": {"w": [
            {"correct": True, "attempted": 100, "failed": failed,
             "metrics": {"lat": {"value": v, "unit": "ms"}}} for v in vals]}}

    base = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    cases = [
        ("improved", base, [v * 0.9 for v in base]),
        ("regressed", base, [v * 1.2 for v in base]),
        ("unchanged", base, [v * 1.01 for v in base]),
        ("unresolved", [60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
         [62, 138, 82, 118, 101, 72, 128, 92, 108, 99]),
    ]
    failures = []
    for want, p, c in cases:
        got, _ = verdict(p, c, "lower", 0.10)
        if got != want:
            failures.append(f"{want}: got {got}")
    # Direction: for a "higher is better" metric, halving is a regression.
    got, _ = verdict(base, [v / 2 for v in base], "higher", 0.10)
    if got != "regressed":
        failures.append(f"higher-is-better regression: got {got}")
    sink = open(os.devnull, "w")
    if compare(runs(base), runs(base, failed=1), bench, sink) == []:
        failures.append("error-rate rise not flagged")
    if compare(runs(base), runs(base), bench, sink) != []:
        failures.append("identical run sets flagged")
    sink.close()
    for f in failures:
        print(f"compare.py self-test: {f}", file=sys.stderr)
    print("compare.py self-test:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if len(args.files) not in (1, 2):
        ap.error("give one run set to summarise or two to compare")
    with open(args.benchmark) as f:
        bench = json.load(f)
    sets = []
    for path in args.files:
        with open(path) as f:
            sets.append(json.load(f))
    if len(sets) == 1:
        print_spreads(sets[0], bench)
        return 0
    return 1 if compare(sets[0], sets[1], bench) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
