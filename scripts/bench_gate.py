#!/usr/bin/env python3
"""Bench regression gate over the frozen benchmark (CI runs it).

    python3 scripts/bench_gate.py --suite figure20 --check
    python3 scripts/bench_gate.py --suite table2 --write-baseline

A run is one untraced ``bench/run.py --workload <suite>`` in a fresh
process, for the benchmark's default ``run_seconds``.  ``--check``
compares its ``pass_s`` (the median pass, already normalised by the
benchmark's calibration slices) with the committed ``BENCH_<suite>.json``,
a verbatim ``bench/run.py`` result file, and fails when the run is more
than ``--tolerance`` slower or when ``bench/run.py`` failed (it does when
any op differs from its reference).  ``--write-baseline`` replaces that
file.  Every run appends one row to the history file.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITES = ("figure20", "service", "table2")
#: the trajectory the ``repro report`` dashboard charts, one line a suite
DEFAULT_HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")


def run_bench(suite: str):
    """One untraced ``bench/run.py`` run: its result, or ``None`` when it
    exited non-zero."""
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run([sys.executable,
                               os.path.join(ROOT, "bench", "run.py"),
                               "--workload", suite, "--out", out])
        if done.returncode != 0:
            return None
        with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
            return json.load(fh)


def pass_s(result: dict) -> float:
    return result["metrics"]["pass_s"]["value"]


def append_history(path: str, result: dict, mode: str,
                   passed=None, allowed=None) -> None:
    header = result["header"]
    row = {"suite": header["workload"], "mode": mode, "passed": passed,
           "allowed_seconds": allowed, "total_seconds": pass_s(result),
           "git_commit": header["git_commit"], "seed": header["seed"],
           "phases": {name: metric["value"]
                      for name, metric in result["metrics"].items()}}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--suite", choices=SUITES, default="table2",
                        help="the bench workload to run (default table2)")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="JSONL file to append a row to ('' = none)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed pass_s slowdown over the baseline "
                             "(default 0.25 = 25%%)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with the committed baseline (default)")
    mode.add_argument("--write-baseline", action="store_true",
                      help="replace the committed baseline with this run")
    args = parser.parse_args(argv)
    path = os.path.join(ROOT, f"BENCH_{args.suite}.json")

    if not args.write_baseline and not os.path.exists(path):
        sys.exit(f"bench gate: no baseline at {path}; run --write-baseline")
    result = run_bench(args.suite)
    if result is None:
        print("bench gate FAILED: bench/run.py exited non-zero")
        return 1

    if args.write_baseline:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        print(f"baseline written: {path} (pass_s {pass_s(result):.4f}s)")
        if args.history:
            append_history(args.history, result, "write-baseline")
        return 0

    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    allowed = pass_s(baseline) * (1.0 + args.tolerance)
    passed = pass_s(result) <= allowed
    print(f"pass_s {pass_s(result):.4f}s against baseline "
          f"{pass_s(baseline):.4f}s (commit "
          f"{baseline['header']['git_commit']}), allowed {allowed:.4f}s")
    if args.history:
        append_history(args.history, result, "check", passed, allowed)
    if not passed:
        print(f"bench gate FAILED: {pass_s(result):.4f}s > {allowed:.4f}s")
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
