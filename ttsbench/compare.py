#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

  python3 ttsbench/compare.py OLD.jsonl NEW.jsonl [--spec BENCHMARK.json]

OLD and NEW hold records written by `run.py --out FILE`, one JSON line per
run (several seeds per workload).  Each end-to-end metric of each workload is
labelled:

  better        the new median beats the old by more than the old runs'
                interquartile spread and the new run wins at least 9 of 10
                position-paired runs; or, where the spread is wider than the
                bound, every new run beats every old run
  worse         the new median is worse than the old by more than the bound;
                or, where the spread is wider than the bound, every new run
                is worse than every old run
  within bound  neither of the above, with both spreads inside the bound
  unresolved    a spread is wider than the bound (or a side has fewer than
                two runs) and the runs overlap

Spread is (Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4).
Where a file also holds traced runs (--trace 1), the tracing overhead of
tts_s and latency_p50_s is printed for it: the median over traced runs
against the median over untraced runs of the same workload.
Exits 1 when any metric is worse, else 0.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict


OVERHEAD_METRICS = ("tts_s", "latency_p50_s")


def load(path, trace=0):
    """{workload: {metric: [values in file order]}} from the records of runs
    with the given --trace setting."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if rec.get("trace") != trace or "workload" not in rec:
                continue
            for name, m in rec["metrics"].items():
                runs[rec["workload"]][name].append(m["value"])
    return runs


def print_overhead(path, workloads):
    plain, traced = load(path, 0), load(path, 1)
    for w in workloads:
        for name in OVERHEAD_METRICS:
            a, b = plain[w].get(name), traced[w].get(name)
            if a and b:
                ratio = statistics.median(b) / statistics.median(a) - 1.0
                print(f"tracing overhead {path}: {w} {name} {ratio:+.3f}"
                      f" (traced n={len(b)}, untraced n={len(a)})")


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def label(old, new, bound, lower_is_better):
    """Returns (label, relative change where positive means worse)."""
    sign = 1.0 if lower_is_better else -1.0
    old_med, new_med = statistics.median(old), statistics.median(new)
    worse_by = sign * (new_med - old_med) / abs(old_med)

    def beats(a, b):
        return sign * (a - b) < 0

    all_better = all(beats(n, o) for n in new for o in old)
    all_worse = all(beats(o, n) for n in new for o in old)
    old_spread, new_spread = spread(old), spread(new)
    if max(old_spread, new_spread) > bound:
        if all_better:
            return "better", worse_by
        if all_worse:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if beats(n, o))
    if -worse_by > old_spread and wins >= 0.9 * len(pairs):
        return "better", worse_by
    return "within bound", worse_by


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--spec", default="BENCHMARK.json")
    args = p.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    old, new = load(args.old), load(args.new)

    rows = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = old[w["name"]].get(m["name"], [])
            b = new[w["name"]].get(m["name"], [])
            if not a and not b:
                continue
            if not a or not b:
                rows.append((w["name"], m["name"], "unresolved", None, a, b, m))
                continue
            verdict, worse_by = label(a, b, m["bound"], m["better"] == "lower")
            rows.append((w["name"], m["name"], verdict, worse_by, a, b, m))

    print(f"{'workload':14s} {'metric':15s} {'old median':>12s} {'new median':>12s}"
          f" {'worse by':>9s} {'old spr':>8s} {'new spr':>8s} {'bound':>6s}  label")
    for wl, name, verdict, worse_by, a, b, m in rows:
        fmt = lambda v: f"{statistics.median(v):12.5g}" if v else f"{'-':>12s}"
        wb = f"{worse_by:+9.3f}" if worse_by is not None else f"{'-':>9s}"
        print(f"{wl:14s} {name:15s} {fmt(a)} {fmt(b)} {wb} {spread(a):8.3f}"
              f" {spread(b):8.3f} {m['bound']:6.2f}  {verdict}"
              f"  (n={len(a)}/{len(b)})")
    for path in (args.old, args.new):
        print_overhead(path, [w["name"] for w in spec["workloads"]])
    return 1 if any(r[2] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
