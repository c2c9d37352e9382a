#!/usr/bin/env python3
"""Compare two benchmark result sets under BENCHMARK.json's bounds.

    python3 benchmark/compare.py A B

A (the parent) and B (the change) are each a results.json written by
run.py, a directory holding one, or a directory whose subdirectories
each hold one. With one result per side the samples are the reps of
each run (for run_s, each rep's wall time). With several per side the
runs are paired in sorted order and the samples are the per-run
values, as the benchmark reports them.

Each workload x end-to-end metric gets one row: each side's median,
quartiles and sample count, the ratio B/A with its base, and a verdict:

  better      at least 10 paired runs, B wins at least 9/10 of them
              (ties count for neither), and the medians differ by more
              than A's interquartile range
  worse       B's median is worse than A's by more than the bound
  unresolved  A's IQR is wider than the bound, and not every B sample
              beats every A sample
  unchanged   otherwise

A gain is never claimed from the reps of a single run. The simulated
metrics (sim_ms, dram_accesses) repeat exactly at one seed; when both
sides are constant, any difference is better or worse.
Exits 1 if any row is worse or either side failed validation.
"""

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Simulated outputs: deterministic for a given seed.
EXACT = {"sim_ms", "dram_accesses"}
# Section 8 of the choosing-metrics method: a gain needs ten pairs.
MIN_PAIRS = 10


def load_side(arg):
    path = Path(arg)
    if path.is_file():
        files = [path]
    elif (path / "results.json").is_file():
        files = [path / "results.json"]
    else:
        files = sorted(path.glob("*/results.json"))
    if not files:
        sys.exit(f"compare.py: no results.json under {arg}")
    return [json.loads(f.read_text()) for f in files]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def side_values(runs, workload, metric):
    """Per-rep samples of a single run, or per-run values."""
    found = [r["workloads"].get(workload, {}).get("end_to_end", {})
             .get(metric) for r in runs]
    if any(m is None for m in found):
        return None
    if len(found) == 1:
        return found[0]["samples"]
    return [m["value"] for m in found]


def verdict(name, a, b, better, bound, paired):
    ma, mb = statistics.median(a), statistics.median(b)
    gain = (lambda x, y: y < x) if better == "lower" else \
        (lambda x, y: y > x)
    if name in EXACT and len(set(a)) == 1 and len(set(b)) == 1:
        if ma == mb:
            return "unchanged"
        return "better" if gain(ma, mb) else "worse"
    q1, q3 = quartiles(a)
    iqr = q3 - q1
    if paired and len(a) >= MIN_PAIRS:
        wins = sum(gain(x, y) for x, y in zip(a, b))
        if (wins >= math.ceil(0.9 * len(a)) and gain(ma, mb)
                and abs(mb - ma) > iqr):
            return "better"
    worse_by = (mb - ma) if better == "lower" else (ma - mb)
    if ma and worse_by / abs(ma) > bound:
        return "worse"
    if ma and iqr / abs(ma) > bound and not all(
            gain(x, y) for x in a for y in b):
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load_side(sys.argv[1]), load_side(sys.argv[2])
    paired = len(side_a) > 1 and len(side_a) == len(side_b)
    if len(side_a) != len(side_b) and (len(side_a) > 1 or len(side_b) > 1):
        sys.exit("compare.py: paired comparison needs the same number "
                 f"of runs per side ({len(side_a)} vs {len(side_b)})")
    print(f"A: {len(side_a)} run(s), B: {len(side_b)} run(s), "
          f"{'paired runs' if paired else 'reps of one run each'}")
    print(f"{'workload':<14}{'metric':<18}{'unit':<8}"
          f"{'A median [q1, q3] n':<35} {'B median [q1, q3] n':<35} "
          f"{'B/A (base A)':<26}verdict")
    bad = False
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = side_values(side_a, w["name"], m["name"])
            b = side_values(side_b, w["name"], m["name"])
            if a is None or b is None:
                print(f"{w['name']:<14}{m['name']:<18}missing on "
                      f"{'A' if a is None else 'B'}")
                bad = True
                continue
            v = verdict(m["name"], a, b, m["better"], m["bound"], paired)
            bad |= v == "worse"
            cols = []
            for vals in (a, b):
                q1, q3 = quartiles(vals)
                cols.append(f"{statistics.median(vals):.5g} "
                            f"[{q1:.5g}, {q3:.5g}] {len(vals)}")
            ma = statistics.median(a)
            ratio = (f"{statistics.median(b) / ma:.4f} ({ma:.5g} "
                     f"{m['unit']})" if ma else "n/a (base 0)")
            print(f"{w['name']:<14}{m['name']:<18}{m['unit']:<8}"
                  f"{cols[0]:<35} {cols[1]:<35} {ratio:<26}{v}")
    for label, runs in (("A", side_a), ("B", side_b)):
        if not all(r.get("correct") for r in runs):
            print(f"compare.py: side {label} has a failed run")
            bad = True
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
