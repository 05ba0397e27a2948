#!/usr/bin/env python3
"""The frozen benchmark: one run = one workload in one fresh process.

    python3 bench/run.py --workload table2 --seed 2011 --seconds 15 --trace 0
    python3 bench/run.py --workload table2 --trace 1     # per-layer ledger
    python3 bench/run.py --write-expected                # refresh references

Every metric named in ``BENCHMARK.json`` is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any op failed.  See ``bench/README.md``.
"""

from time import perf_counter

T_START = perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib import REPO_ROOT, SRC_DIR, add_src_to_path  # noqa: E402
from benchlib.expected import EXPECTED_DIR  # noqa: E402
from benchlib.spans import SpanRecorder, self_times, to_chrome  # noqa: E402
from benchlib.timing import (CALIB_REF_S, Clock, PassTiming,  # noqa: E402
                             calibration_slice, passes_needed, percentile,
                             percentile_supported, scale_for)
from benchlib.workload import DEFAULT_SEED  # noqa: E402



def pin_to_one_cpu():
    """Keep this process and every child on one CPU (Linux).

    Every workload is one closed loop: the client, the daemon and its
    pool worker never compute at the same time, so one CPU is enough,
    and where the scheduler places three processes on two cores was the
    largest run-to-run difference of ``service`` (``README.md``)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))  # interrupts tend to land on CPU 0
    os.sched_setaffinity(0, {cpu})
    return cpu


PINNED_CPU = pin_to_one_cpu()
START_SLICE = calibration_slice()

#: pass indices of staged passes start here
STAGED_INDEX_BASE = 10_000
#: set-ups timed per untraced run (this process's and fresh children's)
SETUP_SAMPLES = 3


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def scrub_environment() -> List[str]:
    """Remove every ``REPRO_*`` variable so that no run is steered by
    the caller's shell; a disk cache would turn parsing into a no-op."""
    if os.environ.get("REPRO_DISK_CACHE", "").strip().lower() in (
            "1", "true", "yes", "on"):
        sys.exit("bench: refusing to run with REPRO_DISK_CACHE on")
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    return scrubbed


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=REPO_ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload) -> Tuple[float, float]:
    """Prepare the workload and run its cold warm-up pass.

    Returns the set-up time ``(normalised, raw)``: process start to the
    first timed op, minus what the harness spent checking references
    (``workload.verify_s``) and on calibration slices."""
    workload.prepare()
    prepared = perf_counter()
    clock = Clock()
    clock.begin_pass()
    workload.warm_up(clock)
    warm = clock.end_pass()
    before_raw = (prepared - T_START) - workload.verify_s - START_SLICE
    before = before_raw * scale_for([START_SLICE, warm.slices[0]])
    return before + warm.norm_s, before_raw + warm.raw_s


def probe_set_up(args, out_dir: str, index: int) -> Tuple[float, float]:
    """One more set-up, timed in a fresh process."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--expected-dir", args.expected_dir,
         "--out", os.path.join(out_dir, f"setup-{index}")],
        capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stdout}"
                           f"{done.stderr}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["raw_setup_s"]


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Passes:
    """Runs passes of one kind under one clock and checks that the
    workload's counts come out the same in every pass."""

    def __init__(self, workload, staged: bool, recorder=None):
        self.workload = workload
        self.staged = staged
        self.clock = Clock(recorder)
        self.timings: List[PassTiming] = []
        self.pass_metrics: List[Dict[str, float]] = []
        self.counts: Dict[str, float] = {}

    def run_one(self) -> None:
        workload, index = self.workload, len(self.timings)
        workload.counts = {}
        workload.reported_s = {}
        self.clock.begin_pass()
        if self.staged:
            # its own range of pass indices: a staged pass must not
            # repeat the order (or the cache keys) of an untraced one
            workload.run_pass_staged(STAGED_INDEX_BASE + index, self.clock)
        else:
            workload.run_pass(index, self.clock)
        timing = self.clock.end_pass()
        self.timings.append(timing)
        if self.staged:
            self.pass_metrics.append(workload.pass_metrics(timing))
        if index == 0:
            self.counts = dict(workload.counts)
        elif workload.counts != self.counts:
            changed = sorted(k for k in set(self.counts) | set(workload.counts)
                             if self.counts.get(k) != workload.counts.get(k))
            workload.fail("counts", f"{changed} changed between passes")

    def median_s(self) -> float:
        return median(t.norm_s for t in self.timings)


def measure(workload, seconds: float) -> Passes:
    """Untraced passes for ``seconds`` (and until the p90 is supported)."""
    passes = Passes(workload, staged=False)
    needed = passes_needed(workload.ops_per_pass)
    started = perf_counter()
    while len(passes.timings) < needed \
            or perf_counter() - started < seconds:
        passes.run_one()
    return passes


def measure_traced(workload, seconds: float, recorder: SpanRecorder
                   ) -> Tuple[Passes, Passes]:
    """Alternate untraced and staged passes for ``seconds``."""
    plain = Passes(workload, staged=False)
    staged = Passes(workload, staged=True, recorder=recorder)
    started = perf_counter()
    while not staged.timings or perf_counter() - started < seconds:
        plain.run_one()
        staged.run_one()
    return plain, staged


def end_to_end(workload, passes: Passes, setups: List[Tuple[float, float]],
               rss_mb: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics, and the raw diagnostics beside them."""
    ops = [op for t in passes.timings for op in t.ops]
    if not percentile_supported(len(ops), 0.90):
        raise RuntimeError(f"{len(ops)} timed ops cannot support a p90")
    pass_s = passes.median_s()
    metrics = {
        "setup_s": median(s for s, _raw in setups),
        "pass_s": pass_s,
        "ops_per_s": workload.ops_per_pass / pass_s,
        "op_ms_p50": percentile([n for _i, _r, n in ops], 0.50) * 1e3,
        "op_ms_p90": percentile([n for _i, _r, n in ops], 0.90) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    slices = [s for t in passes.timings for s in t.slices]
    raw = {
        "raw.setup_s": median(r for _s, r in setups),
        "raw.pass_s": median(t.raw_s for t in passes.timings),
        "raw.op_ms_p50": percentile([r for _i, r, _n in ops], 0.50) * 1e3,
        "raw.op_ms_p90": percentile([r for _i, r, _n in ops], 0.90) * 1e3,
        "raw.verify_s": workload.verify_s,
        "passes": len(passes.timings),
        "ops_timed": len(ops),
        "setup_samples": [s for s, _raw in setups],
        "calibration_slice_s": median(slices),
        "calibration_ref_s": CALIB_REF_S,
    }
    return metrics, raw


def per_layer(workload, plain: Passes, staged: Passes,
              recorder: SpanRecorder) -> Tuple[Dict[str, float],
                                               Dict[str, Any]]:
    """The per-layer ledger of the staged passes."""
    busy: List[Dict[str, float]] = [{} for _ in staged.timings]
    for span, own in zip(recorder.spans, self_times(recorder.spans)):
        per_pass = busy[span.pass_index]
        per_pass[span.name] = per_pass.get(span.name, 0.0) + own
    layer_raw = sum(own for per_pass in busy
                    for name, own in per_pass.items()
                    if not name.startswith("bench."))
    per_pass_metrics = []
    for timing, per_pass, more in zip(staged.timings, busy,
                                      staged.pass_metrics):
        one = {f"{name}_s": own * timing.scale
               for name, own in per_pass.items()
               if not name.startswith("bench.")}
        one.update(more)
        per_pass_metrics.append(one)
    metrics = {name: median(m.get(name, 0.0) for m in per_pass_metrics)
               for name in sorted(set().union(*per_pass_metrics))}
    metrics.update(staged.counts)
    metrics.update(workload.derived(metrics, staged.counts))

    slice_before = calibration_slice()
    extras = workload.extras()
    scale = scale_for([slice_before, calibration_slice()])
    metrics.update({name: value * scale if name.endswith("_s") else value
                    for name, value in extras.items()})

    metrics["bench.trace_overhead_ratio"] = \
        staged.median_s() / plain.median_s()
    metrics["bench.trace_coverage_ratio"] = \
        layer_raw / sum(t.raw_s for t in staged.timings)
    raw = {"passes_untraced": len(plain.timings),
           "passes_staged": len(staged.timings),
           "spans": len(recorder.spans),
           "untraced_pass_s": plain.median_s(),
           "staged_pass_s": staged.median_s()}
    return metrics, raw


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def with_units(values: Dict[str, float], declared: List[Dict[str, Any]],
               fill: bool) -> Dict[str, Dict[str, Any]]:
    """Exactly the declared metrics, each ``{"value", "unit"}``.

    A per-layer metric of a layer the workload never enters is reported
    as 0 (``fill``); any other mismatch between what the harness measured
    and what ``BENCHMARK.json`` declares is a bug of the harness."""
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    missing = sorted(names - set(values))
    if unknown or (missing and not fill):
        raise RuntimeError(f"BENCHMARK.json disagrees with the harness: "
                           f"undeclared {unknown}, unmeasured {missing}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in declared}


def print_report(header: Dict[str, Any], metrics, raw, failures) -> None:
    for key, value in header.items():
        print(f"# {key}: {value}")
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"{name:<{width}}  {entry['value']:.6g} {entry['unit']}")
    for name, value in raw.items():
        print(f"  ({name}: {value})")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long to measure after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="where the result, the Chrome trace and the "
                             "children's logs go (default: "
                             ".bench_out/<run> under the checkout)")
    parser.add_argument("--expected-dir", metavar="DIR",
                        default=EXPECTED_DIR)
    parser.add_argument("--write-expected", action="store_true",
                        help="cross-check and rewrite the references")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    scrubbed = scrub_environment()
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        sys.exit(f"bench: no program to measure: {SRC_DIR}/repro is missing")
    add_src_to_path()
    if args.write_expected:
        from benchlib.references import write_all
        write_all(args.expected_dir)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    out_dir = os.path.abspath(args.out or os.path.join(
        REPO_ROOT, ".bench_out",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"))
    os.makedirs(out_dir, exist_ok=True)
    os.environ["TMPDIR"] = out_dir  # temp files stay inside the checkout

    from benchlib.workloads import workload_class
    workload = workload_class(args.workload)(
        args.seed, out_dir, args.expected_dir)
    recorder = SpanRecorder()
    try:
        setups = [set_up(workload)]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0][0],
                              "raw_setup_s": setups[0][1]}))
            return 0
        if args.trace:
            plain, staged = measure_traced(workload, args.seconds, recorder)
            values, raw = per_layer(workload, plain, staged, recorder)
        else:
            passes = measure(workload, args.seconds)
            rss_mb = workload.peak_rss_mb()
    finally:
        workload.close()

    if args.trace:
        metrics = with_units(values, spec["per_layer"], fill=True)
        with open(os.path.join(out_dir, "trace.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(to_chrome(recorder.spans, f"bench {args.workload}"),
                      fh)
    else:
        setups += [probe_set_up(args, out_dir, i)
                   for i in range(1, SETUP_SAMPLES)]
        values, raw = end_to_end(workload, passes, setups, rss_mb)
        metrics = with_units(values, spec["end_to_end"], fill=False)

    failed = min(len(workload.failures), workload.attempted)
    raw["fail_ratio"] = failed / workload.attempted
    result = {"correct": failed == 0, "attempted": workload.attempted,
              "failed": failed, "metrics": metrics}
    header = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "git_commit": git_commit(),
              "python": platform.python_version(),
              "nproc": os.cpu_count(), "pinned_cpu": PINNED_CPU,
              "scrubbed_env": scrubbed,
              "out": out_dir}
    print_report(header, metrics, raw, workload.failures)
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "header": header, "diagnostics": raw,
                   "failures": workload.failures}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
