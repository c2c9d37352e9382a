#!/usr/bin/env python3
"""The repo benchmark: host time and simulated time of four workloads.

Suite mode (the default) runs every workload in BENCHMARK.json, reps as
the outer loop, then one traced rep per workload and one traced
microbench pass, prints every metric as its value and the q1/q3/n of
its per-rep samples and writes OUT/results.json and OUT/trace.json:

    python3 benchmark/run.py [--seed N] [--reps N] [--out DIR] [--smoke]

Single-workload mode repeats one workload for a fixed time budget and
prints one JSON result as its last line of output:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

With --trace 0 the result holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics, taken from traced reps plus a
microbench pass. Both modes build benchmark/build/ccsvm-bench from
../src on first use and exit 1 if any rep fails validation or
disagrees with another rep on the stats fingerprint.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / "build"
HARNESS = BUILD_DIR / "ccsvm-bench"
# A rep takes a few seconds; this bound keeps a hung one from holding a
# single-workload run past its 180 s limit.
HARNESS_TIMEOUT_S = 120
# The harness's calibration pass at its fastest on the 4-vCPU VM of
# benchmark/README.md, pinned as run.py pins it: host times are
# reported as if the host ran at this speed (see host_scale).
CALIBRATION_NOMINAL_S = 0.0152


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    """Configure (once) and build the harness; all output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {ROOT / 'src'}")
    # Compiler temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=str(BUILD_DIR / "tmp"))
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "ccsvm-bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            fail("building the harness failed: " + " ".join(cmd))


def pin_to_two_cpus():
    """Run this process and the harness processes it starts on the last
    two CPUs it may use (both engine threads of barneshut_t2 fit).
    Measured on a 4-vCPU VM, pinning cut the per-rep variation of
    migratory from 15% to 6%."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, cpus[-2:])


def harness(args):
    """Run the harness once; its JSON output, or None if it failed."""
    try:
        p = subprocess.run([str(HARNESS)] + args, capture_output=True,
                           text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: harness {' '.join(args)} timed out", file=sys.stderr)
        return None
    sys.stderr.write(p.stderr)
    try:
        out = json.loads(p.stdout)
    except json.JSONDecodeError:
        out = None
    if p.returncode != 0 or out is None or not out.get("correct"):
        print(f"run.py: harness {' '.join(args)} failed "
              f"(exit {p.returncode})", file=sys.stderr)
        return None
    return out


def rep_args(workload, seed, smoke, trace_file=None, run_id=None):
    args = ["rep", "--workload", workload, "--seed", str(seed)]
    if smoke:
        args.append("--smoke")
    if trace_file:
        args += ["--trace", str(trace_file), "--run-id", run_id]
    return args


class Tally:
    """Reps of one workload: the output of each rep that succeeded,
    and how many were attempted and failed."""

    def __init__(self):
        self.outs = []
        self.attempted = 0
        self.failed = 0

    def add(self, out):
        self.attempted += 1
        if out is None:
            self.failed += 1
        else:
            self.outs.append(out)

    def samples(self, section):
        """Per metric, its value in each rep."""
        out = {}
        for o in self.outs:
            for name, v in o[section].items():
                out.setdefault(name, []).append(v)
        return out

    def fingerprints(self):
        return {o["fingerprint"] for o in self.outs if "fingerprint" in o}

    def consistent(self):
        """No failure, one stats fingerprint and one segment count."""
        segment_counts = {len(o.get("segments_s", ())) for o in self.outs}
        return (self.failed == 0 and len(self.fingerprints()) <= 1
                and len(segment_counts) <= 1)


def fastest_run_s(outs):
    """run_s of a set of reps of one workload and seed. The harness
    cuts each rep at progress marks into segments that cover the same
    simulated work in every rep; this is the sum over segments of each
    one's fastest time. Host contention on this kind of shared VM
    slows a rep for a few hundred milliseconds to a few seconds at a
    time and seldom hits the same segment in every rep, so the sum
    drops most of it (see benchmark/README.md)."""
    return sum(min(seg) for seg in zip(*(o["segments_s"] for o in outs)))


def host_scale(outs):
    """The factor that takes host seconds measured in a run to seconds
    at the nominal host speed: CALIBRATION_NOMINAL_S over the fastest
    calibration pass of the run's reps. Host speed on a shared VM
    drifts by 10 to 20% for minutes at a time, and the drift slows the
    calibration kernel as much as the simulator (see
    benchmark/README.md)."""
    return CALIBRATION_NOMINAL_S / min(o["calibration_s"] for o in outs)


def end_to_end_values(tally):
    """The end-to-end metrics whose value is not the median rep:
    run_s (fastest_run_s) and setup_s (the median rep), both scaled by
    host_scale, and guest_mops_per_s from that run_s."""
    if not tally.outs:
        return {}
    scale = host_scale(tally.outs)
    run_s = fastest_run_s(tally.outs) * scale
    setup_s = statistics.median(o["end_to_end"]["setup_s"]
                                for o in tally.outs) * scale
    mem_ops = tally.outs[0]["per_layer"]["core.mem_ops"]
    return {"run_s": run_s, "setup_s": setup_s,
            "guest_mops_per_s": mem_ops / run_s / 1e6}


def summaries(samples, spec_metrics, values=None):
    """The listed metrics that have samples: unit, value (the median
    sample unless @p values gives it) and the samples' quartiles
    (statistics.quantiles, n=4) and count."""
    out = {}
    for m in spec_metrics:
        v = samples.get(m["name"])
        if not v:
            continue
        if len(v) > 1:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = v[0]
        value = (values or {}).get(m["name"], statistics.median(v))
        out[m["name"]] = {"unit": m["unit"], "value": value, "q1": q1,
                          "q3": q3, "n": len(v), "samples": v}
    return out


def merge_traces(parts, dest):
    """One Chrome trace from per-run trace files, a process per run."""
    events = []
    for pid, (label, path) in enumerate(parts, start=1):
        with open(path) as f:
            run_events = json.load(f)["traceEvents"]
        path.unlink()
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": label}})
        for e in run_events:
            e["pid"] = pid
            events.append(e)
    with open(dest, "w") as f:
        json.dump({"traceEvents": events}, f)
    return events


def self_times_ms(events):
    """Per run label and span name: duration minus the time covered by
    its child spans (children of one span never overlap)."""
    labels = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    spans = [e for e in events if e["ph"] == "X"]
    child_us = {}
    for e in spans:
        key = (e["pid"], e["args"]["parent"])
        child_us[key] = child_us.get(key, 0.0) + e["dur"]
    out = {}
    for e in spans:
        self_us = e["dur"] - child_us.get((e["pid"], e["args"]["id"]), 0.0)
        per_run = out.setdefault(labels[e["pid"]], {})
        per_run[e["name"]] = per_run.get(e["name"], 0.0) + self_us / 1e3
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, env=env)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(args, started):
    info = json.loads(subprocess.run([str(HARNESS), "info"],
                                     capture_output=True, text=True).stdout)
    return {"commit": git_commit(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "compiler": info["compiler"],
            "build_type": info["build_type"], "seed": args.seed,
            "reps": args.reps, "smoke": args.smoke,
            "wall_s": time.monotonic() - started}


def fmt(v):
    return f"{v:.6g}"


def print_table(results, spec):
    """One line per workload x metric: name, unit, value, and q1, q3
    and n of the per-rep samples. Returns the (workload, metric,
    values) rows it printed."""
    rows = []
    print(f"{'workload':<14}{'metric':<36}{'unit':<15}"
          f"{'value':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for w in spec["workloads"]:
        res = results[w["name"]]
        for section in ("end_to_end", "per_layer"):
            for name, m in res[section].items():
                print(f"{w['name']:<14}{name:<36}{m['unit']:<15}"
                      f"{fmt(m['value']):>12}{fmt(m['q1']):>12}"
                      f"{fmt(m['q3']):>12}{m['n']:>4}")
                rows.append((w["name"], name,
                             [m["value"], m["q1"], m["q3"]]))
        print(f"{w['name']:<14}reps attempted {res['attempted']}, failed "
              f"{res['failed']} (failed_frac {res['failed_frac']:g})")
    return rows


def smoke_check(rows, emitted, spec):
    """Every BENCHMARK.json metric printed once per workload and finite
    (units are printed from BENCHMARK.json), and the harness emits no
    metric that BENCHMARK.json does not list."""
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    seen = set()
    for workload, name, values in rows:
        if (workload, name) in seen:
            problems.append(f"{workload} {name} printed twice")
        seen.add((workload, name))
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{workload} {name} is not finite")
    for w in spec["workloads"]:
        problems += [f"{w['name']} {n} not printed" for n in sorted(listed)
                     if (w["name"], n) not in seen]
        problems += [f"{w['name']} {n} is not in BENCHMARK.json"
                     for n in sorted(emitted[w["name"]] - listed)]
    for p in problems:
        print(f"run.py: smoke: {p}", file=sys.stderr)
    return not problems


def workload_result(reps, traced, micro, spec):
    attempted = reps.attempted + traced.attempted
    failed = reps.failed + traced.failed
    return {
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "fingerprint": sorted(reps.fingerprints() | traced.fingerprints()),
        "end_to_end": summaries(reps.samples("end_to_end"),
                                spec["end_to_end"],
                                end_to_end_values(reps)),
        "per_layer": summaries({**traced.samples("per_layer"),
                                **micro.samples("per_layer")},
                               spec["per_layer"]),
    }


def run_suite(args, spec):
    started = time.monotonic()
    names = [w["name"] for w in spec["workloads"]]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    reps = {n: Tally() for n in names}
    for r in range(args.reps):
        for n in names:
            print(f"run.py: rep {r + 1}/{args.reps} {n}", file=sys.stderr)
            reps[n].add(harness(rep_args(n, args.seed, args.smoke)))

    # The traced pass: per-layer numbers and the span trace.
    parts = []
    traced = {n: Tally() for n in names}
    traced_run_s = {}
    for n in names:
        path = out_dir / f"trace.{n}.json"
        out = harness(rep_args(n, args.seed, args.smoke, path,
                               f"{n}:seed{args.seed}:traced"))
        traced[n].add(out)
        if out is not None:
            parts.append((f"workload {n}", path))
            traced_run_s[n] = out["end_to_end"]["run_s"]
    micro = Tally()
    path = out_dir / "trace.micro.json"
    out = harness(["micro", "--seconds", "0.7" if args.smoke else "3.5",
                   "--trace", str(path), "--run-id", "micro"])
    micro.add(out)
    if out is not None:
        parts.append(("micro", path))
    events = merge_traces(parts, out_dir / "trace.json")

    results = {n: workload_result(reps[n], traced[n], micro, spec)
               for n in names}
    diagnostics = {"self_time_ms": self_times_ms(events),
                   "trace_overhead_pct": {}}
    for n, t in traced_run_s.items():
        # Against the median untraced rep: one traced rep is compared
        # with reps, not with run_s, which drops host contention.
        untraced = results[n]["end_to_end"].get("run_s")
        if untraced:
            base = statistics.median(untraced["samples"])
            diagnostics["trace_overhead_pct"][n] = 100 * (t - base) / base

    rows = print_table(results, spec)
    print("diagnostics (not gated):")
    for n, pct in diagnostics["trace_overhead_pct"].items():
        print(f"  {n:<14}trace_overhead_pct {pct:+.2f}")
    for label, spans in diagnostics["self_time_ms"].items():
        parts_txt = ", ".join(f"{k} {v:.1f}" for k, v in spans.items())
        print(f"  self time ms, {label}: {parts_txt}")

    ok = micro.consistent() and all(
        reps[n].consistent() and traced[n].consistent()
        and len(results[n]["fingerprint"]) == 1 for n in names)
    emitted = {n: set(reps[n].samples("end_to_end"))
               | set(traced[n].samples("per_layer"))
               | set(micro.samples("per_layer")) for n in names}
    if args.smoke and not smoke_check(rows, emitted, spec):
        ok = False
    doc = {"meta": metadata(args, started), "correct": ok,
           "workloads": results, "diagnostics": diagnostics}
    with open(out_dir / "results.json", "w") as f:
        json.dump(doc, f, indent=1)
    print(f"run.py: wrote {out_dir / 'results.json'} and "
          f"{out_dir / 'trace.json'} in {doc['meta']['wall_s']:.1f} s")
    if not ok:
        print("run.py: FAILED: a rep failed validation or the reps "
              "disagree on the stats fingerprint or the segment count",
              file=sys.stderr)
    return 0 if ok else 1


def timed_reps(budget_s, make_args):
    """Start reps while the next one is expected to end within the
    budget, at least one; stop at the first failure."""
    tally = Tally()
    start = time.monotonic()
    last = 0.0
    while tally.attempted == 0 or (
            time.monotonic() - start + last <= budget_s):
        t0 = time.monotonic()
        out = harness(make_args(tally.attempted))
        tally.add(out)
        last = time.monotonic() - t0
        if out is None:
            break
    return tally


def run_one(args, spec):
    """Single-workload mode: one JSON result line over the reps that
    fit in the budget."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload} (want one of "
             f"{', '.join(names)})")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    w = args.workload
    if args.trace:
        # Half the budget on traced reps, half on the microbenches.
        metrics = spec["per_layer"]
        parts = []

        def traced_args(i):
            path = out_dir / f"trace.{w}.{i}.json"
            parts.append((f"workload {w} rep {i}", path))
            return rep_args(w, args.seed, False, path,
                            f"{w}:seed{args.seed}:rep{i}")

        tally = timed_reps(args.seconds / 2, traced_args)
        micro_path = out_dir / "trace.micro.json"
        micro = harness(["micro", "--seconds", str(args.seconds / 2),
                         "--trace", str(micro_path), "--run-id", "micro"])
        parts.append(("micro", micro_path))
        merge_traces([p for p in parts if p[1].exists()],
                     out_dir / "trace.json")
        ok = micro is not None
        samples = tally.samples("per_layer")
        if ok:
            samples.update({k: [v] for k, v in micro["per_layer"].items()})
        summary = summaries(samples, metrics)
    else:
        metrics = spec["end_to_end"]
        tally = timed_reps(args.seconds,
                           lambda i: rep_args(w, args.seed, False))
        ok = True
        summary = summaries(tally.samples("end_to_end"), metrics,
                            end_to_end_values(tally))

    correct = ok and tally.consistent() and len(summary) == len(metrics)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in summary.items()}}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out", default=str(BENCH_DIR / "out"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, 1 rep, check the printed metrics")
    ap.add_argument("--workload", help="single-workload mode")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.reps < 1 or args.seconds <= 0:
        fail("--seed must be >= 0, --reps >= 1 and --seconds > 0")
    if args.smoke:
        args.reps = 1

    spec = load_spec()
    build()
    pin_to_two_cpus()
    sys.exit(run_one(args, spec) if args.workload else run_suite(args, spec))


if __name__ == "__main__":
    main()
