#!/usr/bin/env python3
"""Summarise or compare sets of sensor benchmark runs.

    python3 sensorbench/compare.py RUNS                # one set: spread check
    python3 sensorbench/compare.py PARENT CHANGE       # two sets: verdicts

RUNS, PARENT and CHANGE are directories holding one file per run, each the
standard output of `python3 sensorbench/run.py ...` (sensor_bench's `# run`
header names the workload and seed; the last line is the JSON result).
Metric directions and bounds come from BENCHMARK.json at the repository root
(--benchmark overrides).

One set: per workload and metric, the median, the quartiles and the spread
(quartile distance over the median) against the metric's bound.

Two sets: per workload and metric, each side's median and quartiles, the pair
wins (runs paired by seed, else by seed order) and a verdict:
  improved       the change wins at least 9/10 of all pairs (ties count for
                 neither) and the medians differ by more than the parent's
                 quartile distance
  worse          the change's median is worse than the parent's by more
                 than the bound
  unresolved     the parent's spread is wider than the bound, and not every
                 change run beats every parent run
  within bound   otherwise
Per-layer metrics have no bound: they read improved, worse (the mirror of
the improved rule) or "-".  Exits 1 when any run is incorrect or an
end-to-end metric reads worse.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: [(seed, result)]} from the run files in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip()]
        header = next((json.loads(line[len("# run "):]) for line in lines
                       if line.startswith("# run {")), None)
        if header is None or not lines[-1].startswith("{"):
            print("skipping %s: not a benchmark run" % path, file=sys.stderr)
            continue
        runs.setdefault(header["workload"], []).append(
            (header["seed"], json.loads(lines[-1])))
    for results in runs.values():
        results.sort(key=lambda r: r[0])
    return runs


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def values_of(results, metric):
    return [r["metrics"][metric]["value"] for _, r in results if metric in r["metrics"]]


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def worse_by(change, parent, direction):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    if parent == 0:
        return 0.0
    delta = (parent - change) if direction == "higher" else (change - parent)
    return delta / abs(parent)


def pairs_of(parent, change):
    by_seed = {seed: r for seed, r in change}
    if all(seed in by_seed for seed, _ in parent):
        return [(r, by_seed[seed]) for seed, r in parent]
    return list(zip((r for _, r in parent), (r for _, r in change)))


def verdict(p_vals, c_vals, pairs, metric, spec):
    direction = spec["better"]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    pairs = [(p, c) for p, c in pairs if metric in p["metrics"] and metric in c["metrics"]]
    wins = losses = 0
    for p, c in pairs:
        pv, cv = p["metrics"][metric]["value"], c["metrics"][metric]["value"]
        wins += better(cv, pv, direction)
        losses += better(pv, cv, direction)
    n = len(pairs)
    iqr = p_q3 - p_q1
    if n and wins >= 0.9 * n and abs(c_med - p_med) > iqr:
        return wins, n, "improved"
    bound = spec.get("bound")
    if bound is None:
        return wins, n, "worse" if n and losses >= 0.9 * n and abs(c_med - p_med) > iqr else "-"
    if worse_by(c_med, p_med, direction) > bound:
        return wins, n, "worse"
    all_better = all(better(c, p, direction) for c in c_vals for p in p_vals)
    if p_med != 0 and iqr / abs(p_med) > bound and not all_better:
        return wins, n, "unresolved"
    return wins, n, "within bound"


def report_failures(label, runs):
    ok = True
    for workload, results in sorted(runs.items()):
        attempted = sum(r["attempted"] for _, r in results)
        failed = sum(r["failed"] for _, r in results)
        incorrect = [seed for seed, r in results if not r["correct"]]
        ok = ok and not incorrect
        print("%-8s %-14s runs %2d  attempted %d  failed %d (%.3g%%)%s" % (
            label, workload, len(results), attempted, failed,
            100.0 * failed / max(attempted, 1),
            "  INCORRECT seeds %s" % incorrect if incorrect else ""))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", metavar="DIR")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("give one set (spread check) or two (parent, change)")
    with open(args.benchmark) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    sides = [load_runs(d) for d in args.sets]
    labels = ("parent", "change") if len(sides) == 2 else ("runs",)
    ok = all([report_failures(label, runs) for label, runs in zip(labels, sides)])
    print()
    if len(sides) == 1:
        print("%-14s %-30s %12s %12s %12s %8s %6s" % (
            "workload", "metric", "q1", "median", "q3", "spread", "bound"))
        for workload, results in sorted(sides[0].items()):
            for name, spec in specs.items():
                vals = values_of(results, name)
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / abs(med) if med else 0.0
                bound = spec.get("bound")
                print("%-14s %-30s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                    workload, name, q1, med, q3, spread,
                    "-" if bound is None else "%.2f" % bound,
                    "  WIDE" if bound is not None and spread > bound else ""))
        return 0 if ok else 1

    parent, change = sides
    print("%-14s %-30s %26s %26s %7s  %s" % (
        "workload", "metric", "parent q1/med/q3", "change q1/med/q3", "wins", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        pairs = pairs_of(parent[workload], change[workload])
        for name, spec in specs.items():
            p_vals, c_vals = values_of(parent[workload], name), values_of(change[workload], name)
            if not p_vals or not c_vals:
                continue
            wins, n, v = verdict(p_vals, c_vals, pairs, name, spec)
            ok = ok and not (v == "worse" and "bound" in spec)
            print("%-14s %-30s %26s %26s %3d/%-3d  %s" % (
                workload, name,
                "/".join("%.4g" % x for x in quartiles(p_vals)),
                "/".join("%.4g" % x for x in quartiles(c_vals)),
                wins, n, v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
