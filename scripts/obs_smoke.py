#!/usr/bin/env python
"""Observability smoke check (used by CI, runnable locally).

Exercises the full PR-5 observability surface end to end:

1. runs a warm ``repro table2 -j 2`` subprocess with ``REPRO_LOG=json``
   and validates every stderr log line against the record schema,
   asserting all records share one ``run_id`` (worker records must carry
   the parent's correlation ID across the pool boundary) and none is a
   ``serial-fallback`` (the run really used worker processes);
2. generates the ``repro report`` HTML dashboard for the full suite and
   asserts it is self-contained (no external fetches, no scripts) and
   names all 12 PERFECT benchmarks.

Usage:
  PYTHONPATH=src python scripts/obs_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

FAILURES = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        FAILURES.append(message)


def smoke_json_logs() -> None:
    env = dict(os.environ)
    env["REPRO_LOG"] = "json"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table2", "-j", "2"],
        capture_output=True, text=True, env=env, timeout=600)
    check(proc.returncode == 0,
          f"table2 -j 2 exits 0 (got {proc.returncode})")
    check("TABLE II" in proc.stdout, "table2 stdout renders the table")

    from repro.obs.logging import validate_record
    records = []
    bad_lines = []
    for line in proc.stderr.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            bad_lines.append(line)
            continue
        problems = validate_record(record)
        if problems:
            bad_lines.append(f"{line} -> {problems}")
        else:
            records.append(record)
    check(not bad_lines,
          f"every stderr line is a schema-valid JSON record "
          f"({len(bad_lines)} bad: {bad_lines[:3]})")
    check(len(records) >= 36,
          f"one pipeline-done record per (benchmark x config) "
          f"({len(records)} records)")
    fallbacks = [r for r in records if r.get("event") == "serial-fallback"]
    check(not fallbacks,
          f"-j 2 ran on worker processes, no serial-fallback "
          f"({len(fallbacks)} seen)")
    run_ids = {r.get("run_id") for r in records}
    check(len(run_ids) == 1 and None not in run_ids,
          f"all records share the parent run_id (got {run_ids})")
    benchmarks = {r.get("benchmark") for r in records
                  if r.get("event") == "pipeline-done"}
    check(len(benchmarks) == 12,
          f"pipeline-done records cover 12 benchmarks "
          f"({len(benchmarks)} seen)")


def smoke_dashboard() -> None:
    from repro.cli import main
    from repro.perfect.suite import benchmark_names
    out = os.path.join(tempfile.mkdtemp(prefix="repro-obs-"),
                       "report.html")
    status = main(["report", "--out", out])
    check(status == 0, f"repro report --out exits 0 (got {status})")
    with open(out, "r", encoding="utf-8") as fh:
        html = fh.read()
    check(len(html) > 10_000, f"dashboard is substantial ({len(html)}B)")
    check("http://" not in html and "https://" not in html,
          "dashboard fetches nothing external")
    check("<script" not in html and "<link" not in html,
          "dashboard has no scripts or external stylesheets")
    missing = [n for n in benchmark_names() if n not in html]
    check(not missing,
          f"dashboard names all 12 PERFECT benchmarks (missing {missing})")
    check("Paper divergence" in html,
          "dashboard evaluates the paper's aggregate claims")
    check("repro_dep_tests_total" in html,
          "dashboard embeds the metrics registry")


def main_() -> int:
    smoke_json_logs()
    smoke_dashboard()
    if FAILURES:
        print(f"\nobs smoke FAILED ({len(FAILURES)} checks)")
        return 1
    print("\nobs smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
