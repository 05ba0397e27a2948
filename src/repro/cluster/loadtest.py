"""``repro loadtest`` — concurrent-session replay against the service.

Drives N simultaneous client sessions (each its own TCP connection on
one asyncio loop, speaking the real wire protocol) against a gateway or
single-node daemon, then reports what the paper's batch numbers cannot
show: p50/p99 submit-to-result latency, saturation throughput,
error/retry counts, and dedup/shard hit rates.

Correctness is checked, not assumed: every returned result is compared
against a locally computed :func:`~repro.service.execution.execute_payload`
reference for its payload (volatile keys like per-run ``timings``
excluded), so a loadtest pass means *zero lost and zero incorrect jobs*
— byte-identical answers to a single-node run.

``--gate`` appends a ``loadtest`` suite record to ``BENCH_history.jsonl``
so the obs dashboard plots the latency trajectory alongside the
``table2``/``figure20`` bench lines.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.service import protocol
from repro.service.execution import execute_payload
from repro.service.jobs import payload_digest

_log = obs_logging.get_logger("repro.cluster.loadtest")

#: result keys excluded from the byte-identical comparison (wall-clock
#: measurements legitimately differ between runs)
VOLATILE_RESULT_KEYS = frozenset({"timings"})

#: history suite name the dashboard plots
HISTORY_SUITE = "loadtest"


def build_payloads(distinct: int, kind: str = "probe",
                   benchmark: str = "tref", config: str = "annotation"
                   ) -> List[Dict[str, Any]]:
    """``distinct`` deterministic payloads for a run.

    ``probe`` payloads (default) are instant echoes — they measure the
    *service* (framing, dedup, queueing, shard routing), not the
    pipeline.  ``benchmark`` payloads run the real pipeline on distinct
    configurations for an end-to-end soak.
    """
    if kind == "probe":
        return [{"kind": "probe", "probe": "echo",
                 "value": f"loadtest-{i:05d}"} for i in range(distinct)]
    if kind == "benchmark":
        configs = ("none", "conventional", "annotation")
        return [{"kind": "benchmark", "benchmark": benchmark,
                 "config": configs[i % len(configs)],
                 # a distinct no-op tag so dedup behaves as in `probe`
                 "tag": i // len(configs)}
                for i in range(distinct)]
    raise ValueError(f"unknown loadtest payload kind {kind!r}")


def reference_results(payloads: List[Dict[str, Any]]
                      ) -> Dict[str, Dict[str, Any]]:
    """Locally computed expected result per payload digest."""
    out = {}
    for payload in payloads:
        out[payload_digest(payload)] = _comparable(
            execute_payload(dict(payload)))
    return out


def _comparable(result: Optional[Dict[str, Any]]
                ) -> Optional[Dict[str, Any]]:
    if not isinstance(result, dict):
        return result
    return {k: v for k, v in result.items()
            if k not in VOLATILE_RESULT_KEYS}


async def _read_message(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Read one frame; the contract of :func:`protocol.recv_message`."""
    try:
        header = await reader.readexactly(protocol.HEADER_SIZE)
        length = protocol.frame_length(header)
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise protocol.ProtocolError("connection closed mid-frame") \
            from None
    return protocol.decode_body(body)


async def _session(host: str, port: int, payloads: List[Dict[str, Any]],
                   wait_timeout: float, samples: List[Dict[str, Any]],
                   start_gate: asyncio.Event,
                   trace_ctx: Optional[Dict[str, Any]] = None) -> None:
    """One client session: connect, then submit-and-wait each payload."""
    await start_gate.wait()
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        for _ in payloads:
            samples.append({"ok": False, "code": "connect",
                            "error": str(exc)})
        return
    try:
        for payload in payloads:
            t0 = time.perf_counter()
            message = {"op": "submit", "payload": payload, "wait": True,
                       "wait_timeout": wait_timeout}
            if trace_ctx is not None:
                message["trace_ctx"] = trace_ctx
            try:
                writer.write(protocol.encode(message))
                await writer.drain()
                response = await _read_message(reader)
            except (OSError, protocol.ProtocolError) as exc:
                samples.append({"ok": False, "code": "connection",
                                "error": str(exc)})
                return
            samples.append({
                "ok": bool(response.get("ok")),
                "latency": time.perf_counter() - t0,
                "state": response.get("state"),
                "code": response.get("code"),
                "deduped": bool(response.get("deduped")),
                "cached": bool(response.get("cached")),
                "digest": response.get("digest"),
                "result": response.get("result"),
            })
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionResetError):
            pass


async def _drive(host: str, port: int,
                 plans: List[List[Dict[str, Any]]],
                 wait_timeout: float,
                 trace_ctx: Optional[Dict[str, Any]] = None) -> tuple:
    samples: List[Dict[str, Any]] = []
    start_gate = asyncio.Event()
    tasks = [asyncio.ensure_future(
        _session(host, port, plan, wait_timeout, samples, start_gate,
                 trace_ctx=trace_ctx))
        for plan in plans]
    await asyncio.sleep(0)      # let every session reach the gate
    start_gate.set()            # ...then open the floodgate together
    t0 = time.perf_counter()
    await asyncio.gather(*tasks)
    return samples, time.perf_counter() - t0


def _percentile(sorted_values: List[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default).

    ``round()`` banker's-rounds half-way ranks (p50 of two samples
    picked the *smaller* one), so interpolate instead: the q-quantile
    of n samples sits at fractional rank ``q * (n - 1)``.
    """
    if not sorted_values:
        return 0.0
    pos = min(1.0, max(0.0, q)) * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def _service_stats(host: str, port: int) -> Dict[str, Any]:
    """One synchronous peek at the service's health + metrics ops."""
    from repro.service.client import ServiceClient
    stats: Dict[str, Any] = {}
    try:
        with ServiceClient(host, port) as client:
            stats["health"] = client.health()
            flat = client.metrics().get("metrics", {})
        for key in ("repro_jobs_retried_total",
                    "repro_cluster_steals_total",
                    "repro_cluster_dead_nodes_total",
                    "repro_jobs_deduped_total",
                    "repro_cache_hits_total",
                    "repro_cache_misses_total"):
            value = flat.get(key)
            if isinstance(value, (int, float)):
                stats[key] = value
    except Exception as exc:
        stats["error"] = f"{type(exc).__name__}: {exc}"
    return stats


def run_loadtest(host: str, port: int, sessions: int = 1000,
                 jobs_per_session: int = 1, distinct: int = 64,
                 kind: str = "probe", benchmark: str = "tref",
                 wait_timeout: float = 120.0,
                 verify: bool = True,
                 trace: bool = False) -> Dict[str, Any]:
    """Run the loadtest and return the report dict (see module doc).

    ``trace=True`` opens one distributed trace for the whole run: every
    submission carries the run's root context, so gateway, worker, and
    shard spans all land under a single trace id — collect the stitched
    timeline afterwards with ``repro trace-collect``.
    """
    distinct = max(1, min(distinct, sessions * jobs_per_session))
    payloads = build_payloads(distinct, kind=kind, benchmark=benchmark)
    expected = reference_results(payloads) if verify else {}

    trace_ctx = trace_id = None
    if trace:
        from repro.obs.distributed import TraceContext, new_trace_id
        root = TraceContext(new_trace_id())
        trace_id = root.trace_id
        trace_ctx = {"traceparent": root.to_traceparent()}

    # deterministic round-robin: session s starts at payload s, so with
    # distinct << sessions the dedup/cache paths get heavy concurrency
    plans = [[payloads[(s + j) % distinct]
              for j in range(jobs_per_session)]
             for s in range(sessions)]
    _log.info("loadtest-start", host=host, port=port, sessions=sessions,
              jobs=sessions * jobs_per_session, distinct=distinct,
              kind=kind, trace_id=trace_id)
    samples, duration = asyncio.run(
        _drive(host, port, plans, wait_timeout, trace_ctx=trace_ctx))

    latencies = sorted(s["latency"] for s in samples if "latency" in s)
    outcomes: Dict[str, int] = {}
    mismatches = lost = deduped = cached = 0
    for sample in samples:
        if sample.get("ok") and sample.get("state") == "done":
            outcomes["done"] = outcomes.get("done", 0) + 1
            deduped += bool(sample.get("deduped"))
            cached += bool(sample.get("cached"))
            if verify:
                want = expected.get(sample.get("digest"))
                if _comparable(sample.get("result")) != want:
                    mismatches += 1
        else:
            label = str(sample.get("code") or sample.get("state")
                        or "error")
            outcomes[label] = outcomes.get(label, 0) + 1
            lost += 1

    total_jobs = len(samples)
    report = {
        "host": host, "port": port,
        "sessions": sessions,
        "jobs_per_session": jobs_per_session,
        "jobs": total_jobs,
        "distinct_payloads": distinct,
        "payload_kind": kind,
        "duration_seconds": round(duration, 4),
        "throughput_jobs_per_sec": round(total_jobs / duration, 2)
            if duration > 0 else 0.0,
        "latency": {
            "p50": round(_percentile(latencies, 0.50), 4),
            "p90": round(_percentile(latencies, 0.90), 4),
            "p99": round(_percentile(latencies, 0.99), 4),
            "mean": round(sum(latencies) / len(latencies), 4)
                if latencies else 0.0,
            "max": round(latencies[-1], 4) if latencies else 0.0,
        },
        "outcomes": outcomes,
        "deduped": deduped,
        "cached": cached,
        "lost": lost,
        "mismatches": mismatches,
        "verified": verify,
        "ok": lost == 0 and mismatches == 0,
        "trace_id": trace_id,
        "service": _service_stats(host, port),
    }
    _observe(report)
    _log.info("loadtest-finish", ok=report["ok"], lost=lost,
              mismatches=mismatches, p99=report["latency"]["p99"],
              throughput=report["throughput_jobs_per_sec"])
    return report


def _observe(report: Dict[str, Any]) -> None:
    """Land the headline numbers in the obs registry (dashboard feed)."""
    g = obs_metrics.gauge
    g("repro_loadtest_sessions", "sessions in the last loadtest"
      ).set(report["sessions"])
    g("repro_loadtest_throughput_jobs_per_sec",
      "saturation throughput of the last loadtest"
      ).set(report["throughput_jobs_per_sec"])
    g("repro_loadtest_p50_seconds", "p50 latency of the last loadtest"
      ).set(report["latency"]["p50"])
    g("repro_loadtest_p99_seconds", "p99 latency of the last loadtest"
      ).set(report["latency"]["p99"])
    c = obs_metrics.counter
    c("repro_loadtest_jobs_total", "loadtest jobs driven, by outcome")
    for outcome, count in report["outcomes"].items():
        obs_metrics.counter("repro_loadtest_jobs_total").inc(
            count, outcome=outcome)
    if report["mismatches"]:
        c("repro_loadtest_mismatches_total",
          "loadtest results differing from the local reference"
          ).inc(report["mismatches"])


def append_history(report: Dict[str, Any],
                   path: str = "BENCH_history.jsonl") -> None:
    """Append a ``loadtest`` suite record the dashboard can plot
    (same JSONL stream as the bench gate's table2/figure20 records)."""
    record = {
        "ts": round(time.time(), 3),
        "mode": "loadtest",
        "suite": HISTORY_SUITE,
        # the trajectory chart plots p99 latency for this suite — the
        # number a service regression moves first.  A dedicated field:
        # aliasing it into total_seconds (a wall-clock elsewhere) made
        # the dashboard label latency as run time.
        "p99_seconds": report["latency"]["p99"],
        "phases": {"p50": report["latency"]["p50"],
                   "p90": report["latency"]["p90"],
                   "p99": report["latency"]["p99"]},
        "throughput_jobs_per_sec": report["throughput_jobs_per_sec"],
        "sessions": report["sessions"],
        "jobs": report["jobs"],
        "lost": report["lost"],
        "mismatches": report["mismatches"],
        "passed": report["ok"],
    }
    if isinstance(report.get("slo"), dict):
        # the gate's SLO evaluation rides along so the dashboard can
        # show the latest objective/burn-rate table without re-running
        record["slo"] = report["slo"]
    if report.get("trace_id"):
        record["trace_id"] = report["trace_id"]
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        _log.info("loadtest-history", path=os.path.abspath(path))
    except OSError as exc:
        _log.warning("loadtest-history-failed", path=path,
                     error=str(exc))
