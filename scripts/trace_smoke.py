#!/usr/bin/env python
"""Trace smoke test (used by CI, runnable locally).

Runs `repro table2 --benchmarks adm --trace out.json -j 4` through the
real CLI entry point, then asserts:

1. the trace file is valid Chrome trace-event JSON
   (`validate_chrome_trace` finds nothing);
2. the per-loop decision records — from the trace's `loopDecisions` AND
   from the sibling `.decisions.jsonl` — reproduce the table's
   `#par-loops` counts exactly per configuration;
3. both decision sources agree with each other;
4. every record from both sources keeps the loop-record invariant
   across the worker export/merge boundary: a loop serial for a
   legality reason lists that reason first in `blockers`, a parallel
   or unprofitable one lists none.

Usage: PYTHONPATH=src python scripts/trace_smoke.py [--benchmark adm]
"""

import argparse
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402
from repro.perfect import get_benchmark  # noqa: E402
from repro.trace import (count_parallel, read_decisions_jsonl,  # noqa: E402
                         validate_chrome_trace)

CONFIG_KINDS = ("none", "conventional", "annotation")
#: serial verdicts that are not legality failures (no blockers)
NOT_LEGALITY = ("unprofitable",)


def consistent(decision) -> bool:
    """Does the record's first blocker name its verdict's reason?"""
    if decision.parallelized or decision.reason in NOT_LEGALITY:
        return decision.blockers == ()
    return (bool(decision.blockers) and tuple(decision.blockers[0][:2])
            == (decision.reason, decision.detail))


def check_blockers(decisions, source: str) -> None:
    """Raise unless every record's blockers agree with its verdict."""
    bad = [d.describe() for d in decisions if not consistent(d)]
    if bad:
        raise SystemExit(f"{source}: blockers disagree with the verdict:"
                         "\n  " + "\n  ".join(bad))
    print(f"{source}: {len(decisions)} records, "
          f"{sum(1 for d in decisions if d.blockers)} with blockers, "
          "all consistent")


def run(benchmark: str) -> None:
    workdir = tempfile.mkdtemp(prefix="repro-trace-smoke-")
    trace_path = os.path.join(workdir, "out.json")
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(["table2", "--benchmarks", benchmark,
                     "--trace", trace_path, "-j", "4"])
    if code != 0:
        raise SystemExit(f"repro table2 exited {code}")
    print(stdout.getvalue())

    with open(trace_path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    problems = validate_chrome_trace(trace)
    if problems:
        raise SystemExit("invalid Chrome trace:\n  " + "\n  ".join(problems))
    print(f"trace OK: {len(trace['traceEvents'])} events, "
          f"{len(trace['loopDecisions'])} decision records")

    decisions_path = os.path.splitext(trace_path)[0] + ".decisions.jsonl"
    jsonl = read_decisions_jsonl(decisions_path)
    from_jsonl = count_parallel(jsonl)
    from repro.trace import LoopDecision
    traced = [LoopDecision.from_dict(d) for d in trace["loopDecisions"]]
    check_blockers(traced, "loopDecisions")
    check_blockers(jsonl, "decisions.jsonl")
    from_trace = count_parallel(traced)
    if from_trace != from_jsonl:
        raise SystemExit(f"loopDecisions {from_trace} != "
                         f"decisions.jsonl {from_jsonl}")

    # recompute the table independently (serial, fresh run) and compare
    from repro.experiments.table2 import table2_rows
    (row,) = table2_rows(benchmarks=[get_benchmark(benchmark)])
    for kind in CONFIG_KINDS:
        expected = row.configs[kind].par_loops
        got = from_trace.get((row.benchmark, kind), 0)
        status = "ok" if got == expected else "MISMATCH"
        print(f"  {row.benchmark}/{kind}: table={expected} "
              f"trace={got} [{status}]")
        if got != expected:
            raise SystemExit(
                f"decision records disagree with the table for "
                f"{row.benchmark}/{kind}: {got} != {expected}")
    print("trace smoke passed")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--benchmark", default="adm")
    run(parser.parse_args().benchmark)
