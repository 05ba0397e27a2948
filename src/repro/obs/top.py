"""``repro top`` — live terminal view of the cluster telemetry plane.

Polls the gateway's ``telemetry`` op (merged metric snapshot + health +
sequence-numbered events) and renders a fixed-width status board:
queue/job counts, per-worker lease and heartbeat ages, shard hit rates,
the most recent health events, and — when an SLO spec is given — the
live objective/burn-rate table.

The renderer is a pure function (:func:`render_top`) over one snapshot
so tests never need a terminal; :func:`run_top` adds the poll loop and
ANSI home-and-clear between frames.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

from repro.obs.slo import (evaluate_slo, measurements_from_telemetry,
                           render_slo)

#: ANSI: cursor home + clear to end of screen (no full clear = no flicker)
_ANSI_FRAME = "\x1b[H\x1b[J"

SHARD_REQUESTS_COUNTER = "repro_cluster_shard_requests_total"


def _age(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 120:
        return f"{seconds:.1f}s"
    if seconds < 7200:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def _counter_by(exported: Optional[Dict[str, Any]], label: str
                ) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, amount in (exported or {}).get("values", ()):
        labels = {k: v for k, v in key}
        name = labels.get(label, "")
        out[name] = out.get(name, 0.0) + amount
    return out


def _shard_lines(metrics: Dict[str, Any]) -> List[str]:
    requests = metrics.get(SHARD_REQUESTS_COUNTER)
    if not isinstance(requests, dict):
        return []
    per_shard: Dict[str, Dict[str, float]] = {}
    for key, amount in requests.get("values", ()):
        labels = {k: v for k, v in key}
        shard = labels.get("shard", "?")
        outcome = labels.get("outcome", "?")
        per_shard.setdefault(shard, {})
        per_shard[shard][outcome] = \
            per_shard[shard].get(outcome, 0.0) + amount
    lines = []
    for shard in sorted(per_shard):
        o = per_shard[shard]
        hits, misses = o.get("hit", 0.0), o.get("miss", 0.0)
        lookups = hits + misses
        rate = f"{hits / lookups:.1%}" if lookups else "-"
        lines.append(f"  {shard:<28} hits {int(hits):>7}  "
                     f"misses {int(misses):>7}  puts "
                     f"{int(o.get('put', 0)):>7}  errors "
                     f"{int(o.get('error', 0)):>4}  hit-rate {rate:>6}")
    return lines


def render_top(snapshot: Optional[Dict[str, Any]],
               events: Optional[List[Dict[str, Any]]] = None,
               slo_spec: Optional[Dict[str, Any]] = None,
               window: Optional[List[Dict[str, Any]]] = None,
               now: Optional[float] = None) -> str:
    """One status-board frame as plain text."""
    now = time.time() if now is None else now
    if not snapshot:
        return "repro top — no telemetry yet (is the gateway running " \
               "with telemetry enabled?)"
    health = snapshot.get("health") or {}
    metrics = snapshot.get("metrics") or {}
    cluster = health.get("cluster") or {}
    jobs = health.get("jobs_by_state") or {}
    age = now - float(snapshot.get("at", now))

    lines = [
        f"repro top — {health.get('tier', 'cluster')} "
        f"@ {time.strftime('%H:%M:%S', time.localtime(now))} "
        f"(snapshot {_age(age)} old)",
        f"uptime {_age(health.get('uptime'))}   "
        f"queue {health.get('queue_depth', 0)}/"
        f"{health.get('queue_capacity', '-')}   "
        f"jobs: " + " ".join(f"{state}={jobs.get(state, 0)}"
                             for state in ("queued", "running", "done",
                                           "failed", "expired",
                                           "cancelled")
                             if jobs.get(state)),
    ]

    completed = _counter_by(metrics.get("repro_jobs_completed_total"),
                            "state")
    if completed:
        lines.append("completed: " + "  ".join(
            f"{state}={int(n)}" for state, n in sorted(completed.items())))

    workers = cluster.get("worker_nodes") or {}
    if workers:
        lines.append("")
        lines.append(f"workers ({cluster.get('workers_alive', 0)}"
                     f"/{len(workers)} alive)")
        lines.append(f"  {'node':<24} {'alive':<6} {'hb-age':>7} "
                     f"{'lease':>7} {'run':>4} {'done':>6} {'fail':>5}")
        for name in sorted(workers):
            node = workers[name]
            lines.append(
                f"  {name:<24} "
                f"{'yes' if node.get('alive') else 'NO':<6} "
                f"{_age(node.get('last_heartbeat_age')):>7} "
                f"{_age(node.get('oldest_lease_age')):>7} "
                f"{node.get('running', 0):>4} "
                f"{node.get('done', 0):>6} "
                f"{node.get('failed', 0):>5}")

    shard_lines = _shard_lines(metrics)
    if shard_lines:
        lines.append("")
        lines.append("cache shards")
        lines.extend(shard_lines)

    if slo_spec:
        lines.append("")
        lines.append(render_slo(evaluate_slo(
            slo_spec,
            measurements_from_telemetry(window or [snapshot]),
            source="telemetry")))

    if events:
        lines.append("")
        lines.append("recent events")
        for event in events[-8:]:
            at = time.strftime("%H:%M:%S",
                               time.localtime(event.get("at", now)))
            extra = " ".join(f"{k}={v}" for k, v in sorted(event.items())
                             if k not in ("seq", "at", "kind"))
            lines.append(f"  {at} {event.get('kind', '?'):<16} {extra}")
    return "\n".join(lines)


def run_top(host: str, port: int, interval: float = 2.0,
            iterations: Optional[int] = None,
            slo_spec: Optional[Dict[str, Any]] = None,
            stream=None, ansi: Optional[bool] = None) -> int:
    """Poll the gateway and redraw until interrupted.

    ``iterations`` bounds the loop for tests/smokes; ``ansi`` defaults
    to "stream is a tty".  Returns 0, or 1 when the gateway was never
    reachable.
    """
    from repro.service.client import ServiceClient

    stream = stream if stream is not None else sys.stdout
    if ansi is None:
        ansi = bool(getattr(stream, "isatty", lambda: False)())
    seen_seq = 0
    events: List[Dict[str, Any]] = []
    window: List[Dict[str, Any]] = []
    ever_ok = False
    count = 0
    with ServiceClient(host, port) as client:
        while iterations is None or count < iterations:
            count += 1
            frame_at = time.time()
            try:
                response = client.telemetry(events_since=seen_seq)
            except Exception as exc:
                frame = (f"repro top — gateway {host}:{port} "
                         f"unreachable: {exc}")
            else:
                ever_ok = True
                snapshot = response.get("snapshot")
                fresh = response.get("events") or []
                if fresh:
                    events.extend(fresh)
                    events[:] = events[-64:]
                    seen_seq = max(seen_seq,
                                   max(e.get("seq", 0) for e in fresh))
                if snapshot:
                    window.append(snapshot)
                    window[:] = window[-150:]
                frame = render_top(snapshot, events, slo_spec=slo_spec,
                                   window=window, now=frame_at)
            prefix = _ANSI_FRAME if ansi else ""
            try:
                stream.write(prefix + frame + "\n")
                stream.flush()
            except (OSError, ValueError):
                break
            if iterations is not None and count >= iterations:
                break
            try:
                time.sleep(interval)
            except KeyboardInterrupt:  # pragma: no cover - interactive
                break
    return 0 if ever_ok else 1
