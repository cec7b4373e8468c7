#!/usr/bin/env python3
"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of run records written by ``run.py
--results DIR`` (or a single record file).  For every workload and
end-to-end metric it prints the median and quartiles of each side, the
change of the median against the parent's, the metric's bound, and the
pair win fraction: runs are paired by seed, a pair is a win when the change
reads better than the parent, ties count for neither side.  Then, for the
traced runs, the per-layer medians of both sides and their difference.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import BETTER, END_TO_END, PER_LAYER, UNITS  # noqa: E402

BOUNDS = {name: bound for name, _, _, bound in END_TO_END}


def load(path):
    files = [path] if os.path.isfile(path) else sorted(glob.glob(os.path.join(path, "*.json")))
    runs = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            record = json.load(fh)
        env = record["env"]
        key = (env["workload"], env["trace"], env["size"])
        runs.setdefault(key, []).append(record)
    return runs


def spread(values):
    """(q1, median, q3); the quartiles need two values at least."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def values_by_seed(records, name):
    out = {}
    for record in records:
        metric = record["result"]["metrics"].get(name)
        if metric is not None:
            out.setdefault(record["env"]["seed"], []).append(metric["value"])
    return {seed: statistics.median(v) for seed, v in out.items()}


def better(name, a, b):
    """Whether a reads better than b."""
    return a > b if BETTER[name] == "higher" else a < b


def fmt(x):
    return "%.6g" % x


def compare_metrics(parent, change, names, with_bounds):
    rows = []
    for name in names:
        p = values_by_seed(parent, name)
        c = values_by_seed(change, name)
        if not p or not c:
            continue
        pq, cq = spread(list(p.values())), spread(list(c.values()))
        if pq[1]:
            delta = (cq[1] - pq[1]) / pq[1]
        else:
            delta = 0.0 if cq[1] == 0 else float("inf")
        seeds = sorted(set(p) & set(c))
        wins = sum(1 for s in seeds if better(name, c[s], p[s]))
        row = [
            name,
            UNITS[name],
            "%s [%s, %s]" % (fmt(pq[1]), fmt(pq[0]), fmt(pq[2])),
            "%s [%s, %s]" % (fmt(cq[1]), fmt(cq[0]), fmt(cq[2])),
            "%+.1f%%" % (100 * delta),
            "%d/%d" % (wins, len(seeds)),
        ]
        if with_bounds:
            worse = -delta if BETTER[name] == "higher" else delta
            verdict = "REGRESSION" if worse > BOUNDS[name] else "ok"
            row += ["%.0f%%" % (100 * BOUNDS[name]), verdict]
        rows.append(row)
    return rows


def print_rows(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  " + "  ".join(str(x).ljust(w) for x, w in zip(r, widths)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    workloads = sorted({(w, size) for w, _, size in parent} & {(w, size) for w, _, size in change})
    if not workloads:
        print("error: no workload has runs on both sides", file=sys.stderr)
        return 2
    header = ["metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"]
    for workload, size in workloads:
        title = workload if size == "full" else "%s (%s)" % (workload, size)
        p, c = parent.get((workload, 0, size), []), change.get((workload, 0, size), [])
        if p and c:
            print("%s: end to end, %d parent and %d change runs" % (title, len(p), len(c)))
            names = [n for n, *_ in END_TO_END]
            print_rows(header + ["bound", "verdict"], compare_metrics(p, c, names, True))
        p, c = parent.get((workload, 1, size), []), change.get((workload, 1, size), [])
        if p and c:
            print("%s: per layer, %d parent and %d change traced runs" % (title, len(p), len(c)))
            names = [n for n, *_ in PER_LAYER]
            print_rows(header, compare_metrics(p, c, names, False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
