#!/usr/bin/env python3
"""Summarize or compare saved benchmark results.

    python3 perfbench/compare.py RESULTS_DIR
        per workload and metric: run count, median, quartiles and the
        quartile spread as a share of the median

    python3 perfbench/compare.py BASE_DIR NEW_DIR
        per workload and end-to-end metric: both medians, the change, the
        bound from BENCHMARK.json, and whether the change is within it

A results directory is what perfbench/run.py writes to <build dir>/results.
Runs recorded on hosts with different CPU counts are refused: their timings
do not compare.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = {}
    for p in sorted(Path(directory).glob("*.json")):
        rec = json.loads(p.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    if not runs:
        sys.exit(f"compare: no results in {directory}")
    return runs


def cpu_counts(runs):
    return {r["stamp"]["num_cpus"] for recs in runs.values() for r in recs
            if r.get("stamp")}


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def spread(directory):
    runs = load(directory)
    for (workload, trace), recs in sorted(runs.items()):
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        print(f"{workload} (trace {trace}): {len(recs)} runs, "
              f"{failed} of {attempted} points failed")
        for metric in recs[0]["result"]["metrics"]:
            med, q1, q3, rel = summary(values(recs, metric))
            unit = recs[0]["result"]["metrics"][metric]["unit"]
            print(f"  {metric:40s} median {med:14.6g} {unit:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {rel:7.3f}")


def compare(base_dir, new_dir):
    base, new = load(base_dir), load(new_dir)
    cpus = cpu_counts(base) | cpu_counts(new)
    if len(cpus) > 1:
        sys.exit(f"compare: refusing to compare runs from hosts with "
                 f"{sorted(cpus)} CPUs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for m in spec["end_to_end"]:
        for (workload, trace), recs in sorted(new.items()):
            if trace != 0 or (workload, 0) not in base:
                continue
            b = statistics.median(values(base[(workload, 0)], m["name"]))
            n = statistics.median(values(recs, m["name"]))
            change = (n - b) / b if b else 0.0
            regress = change if m["better"] == "lower" else -change
            ok = regress <= m["bound"]
            worse += not ok
            print(f"{workload:14s} {m['name']:16s} base {b:12.6g} new {n:12.6g} "
                  f"change {change:+7.3f} bound {m['bound']:.2f} "
                  f"{'ok' if ok else 'WORSE'}")
    return 1 if worse else 0


def main():
    if len(sys.argv) == 2:
        spread(sys.argv[1])
        return 0
    if len(sys.argv) == 3:
        return compare(sys.argv[1], sys.argv[2])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main())
