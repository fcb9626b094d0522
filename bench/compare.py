#!/usr/bin/env python3
"""Compares Google Benchmark JSON documents benchmark by benchmark.

Usage:
  bench/compare.py <old.json> <new.json> [--filter REGEX]
  bench/compare.py --old O1.json O2.json ... --new N1.json N2.json ...
                   [--filter REGEX]

Each side is one document or several, e.g. one per process of an
interleaved A/B (old, new, old, new, ...). Benchmarks are matched by name
(the run name, so repetitions of one benchmark group together), and a
side's samples are the repetitions of every one of its documents. For
each match the script prints the median of each side's samples and the
relative change. The metric is items_per_second (higher is better) when
both sides report it, real_time (lower is better) otherwise.

Each change is judged against a noise band taken from the samples'
spread: the larger of the two sides' (max - min) / median. With several
documents per side the band covers the spread between processes (a
process's placement, frequency and neighbours), which the repetitions of
one process do not show and which on a shared host can exceed it several
times over. A change outside the band is flagged "better" or "worse"; one
inside it is "~". A side with a single sample has no spread, so its band
is reported as "n/a" and the change is not judged — run with
--benchmark_repetitions=N (N >= 3), or pass several documents, to get a
band.

Aggregate rows (_mean, _median, _stddev, ...) are used only when a
document holds no per-repetition rows for that benchmark.
"""

import argparse
import json
import re
import statistics
import sys

TIME_SCALE = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load(path):
    """Returns {run name: [row, ...]} for one benchmark JSON document."""
    with open(path) as f:
        rows = json.load(f).get("benchmarks", [])
    iterations, aggregates = {}, {}
    for row in rows:
        name = row.get("run_name", row["name"])
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                aggregates.setdefault(name, []).append(row)
        else:
            iterations.setdefault(name, []).append(row)
    for name, medians in aggregates.items():
        iterations.setdefault(name, medians)
    return iterations


def load_all(paths):
    """Pools the rows of several documents: {run name: [row, ...]}."""
    pooled = {}
    for path in paths:
        for name, rows in load(path).items():
            pooled.setdefault(name, []).extend(rows)
    return pooled


def values(rows, metric):
    if metric == "items_per_second":
        return [row["items_per_second"] for row in rows]
    return [row["real_time"] * TIME_SCALE[row.get("time_unit", "ns")]
            for row in rows]


def spread(samples):
    if len(samples) < 2:
        return None
    median = statistics.median(samples)
    return (max(samples) - min(samples)) / median if median else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pair", nargs="*", metavar="old.json new.json")
    parser.add_argument("--old", nargs="+", default=[],
                        help="the old side's documents")
    parser.add_argument("--new", nargs="+", default=[],
                        help="the new side's documents")
    parser.add_argument("--filter", default="",
                        help="only benchmarks whose name matches this regex")
    args = parser.parse_args()
    if args.pair:
        if len(args.pair) != 2 or args.old or args.new:
            parser.error("give either <old.json> <new.json> or --old/--new")
        args.old, args.new = [args.pair[0]], [args.pair[1]]
    if not args.old or not args.new:
        parser.error("both sides need at least one document")
    old, new = load_all(args.old), load_all(args.new)
    pattern = re.compile(args.filter)
    names = [n for n in old if n in new and pattern.search(n)]
    if not names:
        sys.exit("no benchmark names in common (after --filter)")

    header = ("benchmark", "metric", "old", "new", "change", "band", "verdict")
    table = [header]
    for name in names:
        has_items = all("items_per_second" in row
                        for row in old[name] + new[name])
        metric = "items_per_second" if has_items else "real_time"
        higher_is_better = has_items
        before, after = values(old[name], metric), values(new[name], metric)
        old_median = statistics.median(before)
        new_median = statistics.median(after)
        change = (new_median - old_median) / old_median if old_median else 0.0
        bands = [spread(before), spread(after)]
        if None in bands:
            band, verdict = "n/a", "?"
        else:
            band = max(bands)
            improved = change > 0 if higher_is_better else change < 0
            verdict = ("~" if abs(change) <= band
                       else "better" if improved else "worse")
            band = "%.1f%%" % (100 * band)
        unit = "/s" if has_items else "s"
        table.append((name, metric, "%.4g%s" % (old_median, unit),
                      "%.4g%s" % (new_median, unit),
                      "%+.1f%%" % (100 * change), band, verdict))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


if __name__ == "__main__":
    main()
