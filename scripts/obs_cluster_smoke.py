#!/usr/bin/env python
"""Observability cluster smoke test (used by CI, runnable locally).

Spawns the full distributed topology with telemetry enabled, drives a
traced batch through it, and proves the observability plane end to end:

  1. runs a traced loadtest — one root trace context, every submission
     carries it beside the payload,
  2. polls the gateway ``telemetry`` op and asserts a merged snapshot
     with worker health (heartbeat ages, lease ages) arrives, and that
     ``repro top`` renders it,
  3. collects the stitched Chrome trace via ``trace-export`` and
     asserts spans from all three tiers — gateway, worker fleet, shard
     servers — share the run's single trace id, the stitched JSON
     passes :func:`validate_chrome_trace`, and parent/child timestamps
     are monotonic after skew correction; ``repro trace-collect`` then
     stitches the run both live and offline from the persisted
     ``--telemetry-dir``, and the two must hold the same spans,
  4. gates the loadtest report against the committed ``SLO.json``
     (must pass) and against an absurdly tight injected spec (must
     report violations),
  5. runs 3 distinct ``benchmark`` jobs on the worker processes and
     asserts the gateway's ``repro_loops_total`` equals the loop counts
     in their results — and stays there over later heartbeats, so each
     node hands every count over exactly once.

Usage: PYTHONPATH=src python scripts/obs_cluster_smoke.py [--sessions N]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster.loadtest import run_loadtest  # noqa: E402
from repro.cluster.topology import LocalCluster  # noqa: E402
from repro.obs.distributed import ClockModel  # noqa: E402
from repro.obs.slo import (evaluate_slo, load_slo_spec,  # noqa: E402
                           measurements_from_loadtest, render_slo)
from repro.obs.top import render_top  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.trace.chrome import (parent_child_monotonic,  # noqa: E402
                                stitch_spans, validate_chrome_trace)

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

TIGHT_SPEC = {
    "name": "injected-tight",
    "objectives": [
        # nothing real finishes in a nanosecond: guaranteed violation
        {"name": "impossible-latency", "kind": "p99_latency",
         "threshold_seconds": 1e-9},
    ],
}


#: benchmark jobs whose loop counts must reach the gateway exactly once
COUNT_JOBS = ("adm", "trfd", "dyfesm")


def check_loop_counts(client, beat, failures):
    """Step 5: the gateway's ``repro_loops_total`` is the sum of the
    jobs' own loop counts after 3 heartbeat intervals, and unchanged 3
    intervals later."""
    expected = {}
    for name in COUNT_JOBS:
        response = client.submit_benchmark(name, config="none", wait=True,
                                           wait_timeout=120.0)
        if response.get("state") != "done":
            failures.append(f"benchmark job {name} ended "
                            f"{response.get('state')}")
            return
        result = response["result"]
        for verdict, n in (("parallel", result["parallel_count"]),
                           ("serial", sum(result["serial_reasons"].values()))):
            key = f'{{verdict="{verdict}"}}'
            expected[key] = expected.get(key, 0) + n
    expected = {k: n for k, n in expected.items() if n}
    reads = []
    for _ in range(2):
        time.sleep(3 * beat)
        reads.append(client.metrics()["metrics"].get("repro_loops_total"))
    print(f"loop counts: jobs {expected}, gateway {reads[0]} "
          f"then {reads[1]}")
    if reads[0] != expected:
        failures.append(f"gateway repro_loops_total {reads[0]} != the "
                        f"jobs' loop counts {expected}")
    if reads[1] != reads[0]:
        failures.append(f"gateway repro_loops_total moved from {reads[0]} "
                        f"to {reads[1]} with no new jobs")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sessions", type=int, default=24)
    parser.add_argument("--out", default=None,
                        help="keep the stitched trace at this path")
    args = parser.parse_args()

    failures = []
    telemetry_dir = tempfile.mkdtemp(prefix="obs-smoke-telemetry-")
    with LocalCluster(shards=2, workers=2, worker_threads=1,
                      heartbeat_timeout=2.0, retry_backoff=0.1,
                      telemetry_dir=telemetry_dir,
                      run_id="obs-smoke") as cluster:
        host, port = cluster.gateway_address
        client = ServiceClient(host, port, timeout=60.0)
        deadline = time.monotonic() + 20
        while client.health()["cluster"]["workers_alive"] < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.2)

        # 1. traced batch -------------------------------------------------
        report = run_loadtest(host, port, sessions=args.sessions,
                              jobs_per_session=2, distinct=8,
                              kind="probe", wait_timeout=60.0,
                              trace=True)
        print(f"loadtest: {report['jobs']} jobs ok={report['ok']} "
              f"trace={report['trace_id']}")
        if not report["ok"]:
            failures.append("traced loadtest lost jobs or mismatched")
        time.sleep(1.5)  # heartbeats ship the last worker spans

        # 2. telemetry plane ----------------------------------------------
        frame = client.telemetry()
        snapshot = frame.get("snapshot") or {}
        workers = ((snapshot.get("health") or {}).get("cluster") or {}) \
            .get("worker_nodes") or {}
        if len(workers) < 2:
            failures.append(f"telemetry snapshot shows {len(workers)} "
                            f"workers, expected 2")
        for name, node in workers.items():
            if node.get("last_heartbeat_age") is None:
                failures.append(f"worker {name} missing heartbeat age")
        board = render_top(snapshot, frame.get("events"))
        if "workers" not in board:
            failures.append("repro top board missing the worker table")
        print("telemetry: snapshot ok, "
              f"{len(frame.get('events') or [])} events, "
              f"{frame.get('spans_stored')} spans stored")

        # 3. stitched trace -----------------------------------------------
        export = client.trace_export(trace_id=report["trace_id"])
        spans = export["spans"]
        cats = {s.get("cat") for s in spans}
        trace_ids = {s.get("trace_id") for s in spans}
        for tier in ("gateway", "worker", "shard"):
            if tier not in cats:
                failures.append(f"no spans from the {tier} tier "
                                f"(got {sorted(cats)})")
        if trace_ids != {report["trace_id"]}:
            failures.append(f"spans carry {len(trace_ids)} trace ids, "
                            f"expected exactly the run's one")
        chrome = stitch_spans(
            spans, ClockModel.from_offsets(export["clock_offsets"]),
            trace_id=report["trace_id"], label="obs-smoke")
        problems = validate_chrome_trace(chrome)
        if problems:
            failures.append("stitched trace invalid: "
                            + "; ".join(problems[:3]))
        disorder = parent_child_monotonic(chrome)
        if disorder:
            failures.append("parent/child timestamps not monotonic: "
                            + "; ".join(disorder[:3]))
        out = args.out or os.path.join(telemetry_dir, "trace.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(chrome, fh)
        print(f"trace: {len(spans)} spans, tiers={sorted(cats)}, "
              f"stitched -> {out}")

        # the CLI collector must agree with the library path, live and
        # offline (the spans the gateway persisted under telemetry_dir)
        client.telemetry()
        collected = {}
        for mode, where in (("live", ["--host", host, "--port", str(port)]),
                            ("offline", ["--telemetry-dir", telemetry_dir])):
            out = os.path.join(telemetry_dir, f"trace-{mode}.json")
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "trace-collect", *where,
                 "--trace-id", report["trace_id"], "--out", out],
                env=dict(os.environ,
                         PYTHONPATH=os.path.join(REPO_ROOT, "src")),
                capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                failures.append(f"repro trace-collect ({mode}) exited "
                                f"{proc.returncode}: {proc.stderr.strip()}")
                continue
            print(f"trace-collect ({mode}): {proc.stdout.strip()}")
            with open(out, encoding="utf-8") as fh:
                collected[mode] = sorted(
                    e["args"]["span_id"] for e in json.load(fh)["traceEvents"]
                    if e["ph"] == "X")
        if len(set(map(tuple, collected.values()))) > 1:
            failures.append(f"offline trace-collect stitched "
                            f"{len(collected['offline'])} spans, live "
                            f"{len(collected['live'])}")

        # 5. exact counts across real processes ---------------------------
        # (the worker nodes heartbeat every heartbeat_timeout / 4)
        check_loop_counts(client, max(0.1, cluster.heartbeat_timeout / 4),
                          failures)

    # 4. SLO gates (outside the cluster: pure report math) ----------------
    spec = load_slo_spec(os.path.join(REPO_ROOT, "SLO.json"))
    measurements = measurements_from_loadtest(report)
    evaluation = evaluate_slo(spec, measurements, source="loadtest")
    print(render_slo(evaluation))
    if not evaluation["ok"]:
        failures.append("committed SLO.json violated by a healthy run: "
                        + ", ".join(evaluation["violations"]))
    tight = evaluate_slo(TIGHT_SPEC, measurements, source="loadtest")
    if tight["ok"]:
        failures.append("injected nanosecond SLO passed — the gate "
                        "cannot detect violations")
    else:
        print(f"injected violation detected: {tight['violations']}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("obs cluster smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
