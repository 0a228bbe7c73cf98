#!/usr/bin/env python3
"""Compare two benchmark result sets, or summarize one.

  python3 bench/e2e/compare.py A [B]

A and B are directories of result files written by `run.py --out` (sweep.py
writes one per workload and seed).  For every workload x end-to-end metric
of BENCHMARK.json it prints each side's median over its runs and its
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.

With B, each pair is labelled against the metric's bound:
  ok          B's median is not worse than A's by more than the bound
  regressed   it is worse by more than the bound
  unresolved  a side's spread is wider than the bound, unless every run of
              B reads better than every run of A
and the exact counts of traced runs (unit "count", GC counts excepted) are
compared seed by seed; any difference is listed.  Exits 1 when a pair
regressed or a count differs.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit("no result files in " + directory)
    return runs


def values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["provenance"]["workload"] == workload and not r["provenance"]["trace"]]


def spread(xs):
    if len(xs) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def worse(a, b, better):
    """How much worse b is than a, as a share of a."""
    return (b - a) / a if better == "lower" else (a - b) / a


def label(a, b, m):
    if spread(a) > m["bound"] or spread(b) > m["bound"]:
        if m["better"] == "lower" and max(b) < min(a) or m["better"] == "higher" and min(b) > max(a):
            return "ok"
        return "unresolved"
    return "regressed" if worse(statistics.median(a), statistics.median(b), m["better"]) > m["bound"] else "ok"


def exact_counts(runs):
    counts = {}
    for r in runs:
        p = r["provenance"]
        if not p["trace"]:
            continue
        for k, v in r["result"]["metrics"].items():
            if v["unit"] == "count" and not k.startswith("gc."):
                counts[(p["workload"], p["seed"], k)] = v["value"]
    return counts


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = [load(d) for d in sys.argv[1:]]
    failed = sum(r["result"]["failed"] for runs in sides for r in runs)
    bad = failed > 0
    print("failed checks: %d" % failed)
    header = "%-14s %-12s %5s %12s %7s" % ("workload", "metric", "bound", "median A", "spread")
    if len(sides) == 2:
        header += " %12s %7s %8s  %s" % ("median B", "spread", "change", "label")
    print(header)
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            a = values(sides[0], w["name"], m["name"])
            if not a:
                continue
            line = "%-14s %-12s %5.2f %12.6g %7.3f" % (
                w["name"], m["name"], m["bound"], statistics.median(a), spread(a))
            if len(sides) == 2:
                b = values(sides[1], w["name"], m["name"])
                if not b:
                    line += "  (no runs in B)"
                else:
                    verdict = label(a, b, m)
                    bad |= verdict == "regressed"
                    line += " %12.6g %7.3f %+8.3f  %s" % (
                        statistics.median(b), spread(b),
                        worse(statistics.median(a), statistics.median(b), m["better"]), verdict)
            print(line)
    if len(sides) == 2:
        ca, cb = exact_counts(sides[0]), exact_counts(sides[1])
        common = ca.keys() & cb.keys()
        diffs = sorted(k for k in common if ca[k] != cb[k])
        for k in diffs:
            print("count differs: %s seed %d %s: %s vs %s" % (k[0], k[1], k[2], ca[k], cb[k]))
        print("exact counts: %d compared, %d differ" % (len(common), len(diffs)))
        bad |= bool(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
