#!/usr/bin/env python
"""Bench regression gate (used by CI, runnable locally).

Two suites, selected with ``--suite``:

* ``table2`` (default) — the warm Table II pipeline (the workload PR 1
  parallelized and cached); baseline in ``BENCH_table2.json``.
* ``figure20`` — the full Figure 20 run (12 benchmarks x 2 machines x
  3 configs: pipeline, one profiled execution per distinct optimised
  program, tuning priced from it) from a cleared pipeline cache, under the
  current runtime backend (``REPRO_BACKEND``, compiled by default);
  baseline in ``BENCH_figure20.json``.

Each run records per-phase wall-clock (and, for table2, cache hit
rates) into the suite's baseline file, and — in ``--check`` mode —
fails when the measured total is more than ``--tolerance`` (default
25%) slower than the committed baseline.

Raw wall-clock is not comparable across machines, so the baseline also
stores a *calibration* measurement (a fixed pure-Python workload); the
gate scales the committed total by ``calibration_now / calibration_then``
before comparing.  A slower runner therefore gets a proportionally
slower allowance instead of a spurious failure.

Usage:
  PYTHONPATH=src python scripts/bench_gate.py --check            # CI gate
  PYTHONPATH=src python scripts/bench_gate.py --write-baseline   # refresh
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

SCHEMA = 1
_ROOT = os.path.join(os.path.dirname(__file__), "..")
BASELINES = {
    "table2": os.path.join(_ROOT, "BENCH_table2.json"),
    "figure20": os.path.join(_ROOT, "BENCH_figure20.json"),
}
#: every gate run appends one record here — the trajectory the
#: ``repro report`` dashboard plots (one line per suite)
DEFAULT_HISTORY = os.path.join(_ROOT, "BENCH_history.jsonl")
#: benchmarks timed by the gate (full Table II suite)
BENCHMARKS = None  # None = the full suite
WARM_REPS = 5
#: figure20 reps are lower: a rep is 25 program executions (~1.5s)
FIG20_WARM_REPS = 3


def calibrate(reps: int = 3) -> float:
    """A fixed pure-Python workload measuring this machine's speed."""
    def one() -> float:
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(200_000):
            table[i & 1023] = i
            acc += table[i & 1023] * 3 // 7
        assert acc > 0
        return time.perf_counter() - t0
    return min(one() for _ in range(reps))


def measure() -> dict:
    """Warm Table II timings (median of WARM_REPS) + cache hit rates."""
    from repro.experiments.pipeline import BASE_CACHE_STATS
    from repro.experiments.table2 import table2_rows
    from repro.perfect import all_benchmarks
    from repro.perfect.suite import PROGRAM_CACHE_STATS
    from repro.polaris.report import merge_timings

    benchmarks = all_benchmarks() if BENCHMARKS is None else [
        b for b in all_benchmarks() if b.name.lower() in BENCHMARKS]

    table2_rows(benchmarks=benchmarks)  # warm parse + base caches
    PROGRAM_CACHE_STATS.reset()
    BASE_CACHE_STATS.reset()

    totals = []
    phase_samples = []
    for _ in range(WARM_REPS):
        t0 = time.perf_counter()
        rows = table2_rows(benchmarks=benchmarks)
        totals.append(time.perf_counter() - t0)
        phases = {}
        for row in rows:
            merge_timings(phases, row.timings)
        phase_samples.append(phases)

    median_idx = totals.index(sorted(totals)[len(totals) // 2])
    return {
        "schema": SCHEMA,
        "suite": "table2",
        "benchmarks": [b.name for b in benchmarks],
        "warm_reps": WARM_REPS,
        "total_seconds": round(sorted(totals)[len(totals) // 2], 4),
        "total_samples": [round(t, 4) for t in totals],
        "phases": {k: round(v, 4) for k, v in
                   sorted(phase_samples[median_idx].items())},
        "cache": {
            "program": PROGRAM_CACHE_STATS.as_dict(),
            "base": BASE_CACHE_STATS.as_dict(),
        },
        "calibration_seconds": round(calibrate(), 4),
    }


def measure_figure20() -> dict:
    """Figure 20 timings (median of FIG20_WARM_REPS) under the current
    runtime backend.  Every timed rep starts from a cleared pipeline
    cache: the region profiles live there, so a rep against a warm one
    would time 72 dict lookups plus pricing.  Parse, base and compile
    caches stay warm.  The cells' own timings split the total into the
    pipeline phases, ``profile`` (the 25 executions) and ``price`` (72
    clones priced)."""
    from repro.experiments.figure20 import (clear_pipeline_cache,
                                            figure20_all)
    from repro.polaris.report import merge_timings
    from repro.runtime.backend import default_backend

    figure20_all()  # cold rep: warms the parse, base and compile caches

    totals = []
    phase_samples = []
    for _ in range(FIG20_WARM_REPS):
        clear_pipeline_cache()
        t0 = time.perf_counter()
        cells = figure20_all()
        totals.append(time.perf_counter() - t0)
        phases = {}
        for cell in cells:
            merge_timings(phases, cell.timings)
        phase_samples.append(phases)

    median_idx = totals.index(sorted(totals)[len(totals) // 2])
    return {
        "schema": SCHEMA,
        "suite": "figure20",
        "backend": default_backend(),
        "warm_reps": FIG20_WARM_REPS,
        "total_seconds": round(sorted(totals)[len(totals) // 2], 4),
        "total_samples": [round(t, 4) for t in totals],
        "phases": {k: round(v, 4) for k, v in
                   sorted(phase_samples[median_idx].items())},
        "calibration_seconds": round(calibrate(), 4),
    }


MEASURERS = {"table2": measure, "figure20": measure_figure20}


def check(measured: dict, baseline: dict, tolerance: float) -> int:
    scale = (measured["calibration_seconds"]
             / baseline["calibration_seconds"])
    allowed = baseline["total_seconds"] * scale * (1.0 + tolerance)
    # compare the best measured sample against the allowance: the gate
    # must not fail on one noisy rep when any rep hits the target
    best = min(measured["total_samples"])
    print(f"baseline total : {baseline['total_seconds']:.4f}s "
          f"(calibration {baseline['calibration_seconds']:.4f}s)")
    print(f"machine scale  : x{scale:.3f} "
          f"(calibration now {measured['calibration_seconds']:.4f}s)")
    print(f"allowed total  : {allowed:.4f}s (+{tolerance:.0%})")
    print(f"measured total : median {measured['total_seconds']:.4f}s, "
          f"best {best:.4f}s")
    for phase, seconds in measured["phases"].items():
        base = baseline["phases"].get(phase)
        delta = "" if base is None else \
            f"  (baseline {base:.4f}s, x{seconds / base if base else 0:.2f})"
        print(f"  {phase:<12}{seconds:.4f}s{delta}")
    for label, now in measured.get("cache", {}).items():
        print(f"  cache/{label:<7}hit rate {now['hit_rate']:.2f} "
              f"({now['memory_hits']}+{now['disk_hits']} hits, "
              f"{now['misses']} misses)")
    if best > allowed:
        print(f"bench gate FAILED: {best:.4f}s > {allowed:.4f}s "
              f"(>{tolerance:.0%} slower than the committed baseline)")
        return 1
    print("bench gate passed")
    return 0


def append_history(path: str, measured: dict, mode: str,
                   passed=None, allowed=None, tolerance=None) -> None:
    """Append one gate-run record to the JSONL trajectory (best-effort)."""
    record = {
        "ts": round(time.time(), 3),
        "mode": mode,
        "suite": measured.get("suite", "table2"),
        "total_seconds": measured["total_seconds"],
        "best_seconds": min(measured["total_samples"]),
        "phases": measured["phases"],
        "calibration_seconds": measured["calibration_seconds"],
        "passed": passed,
        "allowed_seconds": None if allowed is None else round(allowed, 4),
        "tolerance": tolerance,
    }
    if "cache" in measured:
        record["cache"] = measured["cache"]
    if "backend" in measured:
        record["backend"] = measured["backend"]
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"bench gate: cannot append history to {path}: {exc}",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(BASELINES),
                        default="table2",
                        help="which workload to time (default table2)")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: the suite's "
                             "committed BENCH_<suite>.json)")
    parser.add_argument("--output", default=None,
                        help="also write the fresh measurement here")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="JSONL trajectory to append each run to "
                             "('' disables)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown over baseline "
                             "(default 0.25 = 25%%)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare against the committed baseline "
                           "(default)")
    mode.add_argument("--write-baseline", action="store_true",
                      help="overwrite the committed baseline with a "
                           "fresh measurement")
    args = parser.parse_args(argv)
    if args.baseline is None:
        args.baseline = BASELINES[args.suite]

    measured = MEASURERS[args.suite]()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(measured, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(measured, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written: {args.baseline} "
              f"(total {measured['total_seconds']:.4f}s)")
        if args.history:
            append_history(args.history, measured, "write-baseline")
        return 0

    if not os.path.exists(args.baseline):
        print(f"bench gate: no baseline at {args.baseline}; run "
              f"--write-baseline first", file=sys.stderr)
        return 2
    with open(args.baseline, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != SCHEMA:
        print(f"bench gate: baseline schema {baseline.get('schema')} != "
              f"{SCHEMA}; refresh with --write-baseline", file=sys.stderr)
        return 2
    if baseline.get("suite", "table2") != args.suite:
        print(f"bench gate: baseline {args.baseline} is for suite "
              f"{baseline.get('suite', 'table2')!r}, not {args.suite!r}",
              file=sys.stderr)
        return 2
    scale = (measured["calibration_seconds"]
             / baseline["calibration_seconds"])
    allowed = baseline["total_seconds"] * scale * (1.0 + args.tolerance)
    status = check(measured, baseline, args.tolerance)
    if args.history:
        append_history(args.history, measured, "check",
                       passed=(status == 0), allowed=allowed,
                       tolerance=args.tolerance)
    return status


if __name__ == "__main__":
    sys.exit(main())
