"""The tracer: the one span recorder, plus per-loop decision records.

Every tier records one span shape, the dict that crosses the wire and
lands on disk: ``name, cat, node, ts_wall, dur, args`` (seconds; a span
without ``dur`` is an instant), plus ``trace_id``/``span_id``/
``parent_id`` when the span belongs to a distributed trace.  ``node``
names the lane the span renders on: the recording tracer's ``label``.
The pipeline times phases with :meth:`Tracer.span`/:meth:`Tracer.phase`;
the control plane records already-timed spans with :meth:`Tracer.record`
and ships them with :meth:`Tracer.drain`.  The buffer is thread-safe
and bounded (:data:`DEFAULT_SPAN_KEEP`; the oldest spans drop, counted
in ``dropped``).  :meth:`Tracer.to_chrome` is the projection ``repro
trace-collect`` renders a cluster run with,
:func:`repro.trace.chrome.stitch_spans`.

A tracer is cheap to carry around disabled: :data:`NULL_TRACER` hands
out one cached no-op context manager and drops decisions in a single
attribute test, keeping the instrumented pipeline's overhead under
measurement noise.

Cross-process story: worker processes build their own enabled tracer,
:meth:`Tracer.export` it to a plain JSON-safe dict (picklable across
the pool boundary, JSON-safe for the service result cache), and the
parent :meth:`Tracer.merge`\\ s each export back in on the lane it
names.  Span starts are wall-clock seconds, so spans from different
processes of one host line up without re-basing.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from repro.trace.chrome import stitch_spans
from repro.trace.decisions import LoopDecision, SiteDecision

#: spans a tracer keeps before the oldest drop (a guard against an
#: unbounded buffer on a node nobody drains)
DEFAULT_SPAN_KEEP = 50_000

Span = Dict[str, Any]


class _NullSpan:
    """A reusable, reentrant no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; closing it records one timed span."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc):
        t = self._tracer
        # both ends on the tracer's one wall timeline, so a span nested
        # in another ends no later than it, bit for bit
        start = t._wall0 + (self._start - t._perf0)
        end = t._wall0 + (time.perf_counter() - t._perf0)
        span: Span = {"name": self._name, "cat": self._cat,
                      "node": t.label, "ts_wall": start, "dur": end - start}
        if exc_type is not None:
            self._args = dict(self._args, error=exc_type.__name__)
        if self._args:
            span["args"] = self._args
        t._add([span])
        return False


class Tracer:
    """Collects spans, instant events, and per-loop decision records.

    ``enabled=False`` builds a permanent no-op (see :data:`NULL_TRACER`);
    instrumentation points should write
    ``tracer = tracer or NULL_TRACER`` and call through unconditionally.
    ``label`` names the lane this tracer's spans render on; ``sink``,
    when given, receives every batch of spans added (the telemetry store
    persists a run's spans through it).
    """

    def __init__(self, enabled: bool = True, label: str = "repro",
                 keep: int = DEFAULT_SPAN_KEEP,
                 sink: Optional[Callable[[List[Span]], None]] = None):
        self.enabled = enabled
        self.label = label
        self.keep = keep
        self.dropped = 0
        self.decisions: List[LoopDecision] = []
        self.site_decisions: List[SiteDecision] = []
        self._spans: List[Span] = []
        self._sink = sink
        self._lock = threading.Lock()
        self._perf0 = time.perf_counter()
        self._wall0 = time.time()
        # decision-record identities already merged, keyed by job — a
        # crash-retried job re-executes and its retry export repeats the
        # first attempt's decisions; counting them twice breaks the
        # Table II ↔ trace cross-check
        self._merged_decision_keys: set = set()

    # -- the buffer --------------------------------------------------

    def _add(self, spans: List[Span]) -> None:
        with self._lock:
            self._spans.extend(spans)
            overflow = len(self._spans) - self.keep
            if overflow > 0:
                del self._spans[:overflow]
                self.dropped += overflow
        if self._sink is not None and spans:
            self._sink(spans)

    def spans(self) -> List[Span]:
        """A copy of the buffered spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def drain(self, limit: Optional[int] = None) -> List[Span]:
        """Remove and return up to ``limit`` buffered spans (FIFO).

        The caller owns delivery: a worker keeps the drained batch in
        its pending heartbeat ship until the gateway acks its sequence
        number, so a lost response never loses spans.
        """
        with self._lock:
            out = self._spans[:limit]
            del self._spans[:limit]
            return out

    # -- recording ---------------------------------------------------

    def span(self, name: str, cat: str = "pipeline", **args: Any):
        """Context manager timing one phase; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, args)

    @contextmanager
    def phase(self, name: str, timings: Dict[str, float], **args: Any):
        """One timed pipeline phase: the span of :meth:`span` *and* its
        seconds added to ``timings[name]`` (the ``Report.timings`` that
        ``--profile`` shows).  The timing is kept even when the tracer
        is disabled; the span only when enabled."""
        start = time.perf_counter()
        with self.span(name, **args):
            yield
        timings[name] = (timings.get(name, 0.0)
                         + time.perf_counter() - start)

    def instant(self, name: str, cat: str = "pipeline",
                **args: Any) -> None:
        if not self.enabled:
            return
        span: Span = {"name": name, "cat": cat, "node": self.label,
                      "ts_wall": self._wall0
                      + (time.perf_counter() - self._perf0)}
        if args:
            span["args"] = args
        self._add([span])

    def record(self, name: str, ctx, cat: str = "cluster",
               start_wall: Optional[float] = None, duration: float = 0.0,
               parent_id: Optional[str] = None, **args: Any) -> None:
        """Append one already-timed span of the distributed trace
        ``ctx`` (a :class:`~repro.obs.distributed.TraceContext`; its
        ``span_id`` is this span's)."""
        span: Span = {
            "name": name, "cat": cat, "node": self.label,
            "trace_id": ctx.trace_id, "span_id": ctx.span_id,
            "parent_id": parent_id,
            "ts_wall": time.time() if start_wall is None else start_wall,
            "dur": max(0.0, float(duration)),
        }
        if args:
            span["args"] = args
        self._add([span])

    def decision(self, decision: LoopDecision) -> None:
        """Record one per-loop decision (and an instant event so the
        decision is visible on the Perfetto timeline)."""
        if not self.enabled:
            return
        self.decisions.append(decision)
        self.instant(f"loop {decision.origin or decision.var}",
                     cat="decision",
                     parallel=decision.parallelized,
                     reason=decision.reason or "parallel")

    def site(self, decision: SiteDecision) -> None:
        """Record one demand-inlining call-site decision (and an instant
        event so the resolution is visible on the timeline)."""
        if not self.enabled:
            return
        self.site_decisions.append(decision)
        self.instant(f"site {decision.callee}", cat="site",
                     action=decision.action,
                     reason=decision.reason or decision.source)

    # -- merge / export ----------------------------------------------

    def export(self, job: Optional[str] = None) -> Dict[str, Any]:
        """JSON-safe snapshot for crossing a process or wire boundary.

        ``job`` (usually the payload digest) tags the export so a
        receiver can merge retried attempts of the same job without
        double-counting decisions.
        """
        out = {
            "label": self.label,
            "pid": os.getpid(),
            "spans": self.spans(),
            "decisions": [d.to_dict() for d in self.decisions],
            "site_decisions": [d.to_dict() for d in self.site_decisions],
        }
        if job is not None:
            out["job"] = job
        return out

    @staticmethod
    def _decision_key(job: str, kind: str, d: Dict[str, Any]) -> tuple:
        """Stable identity of one decision record within one job.

        A loop is (benchmark, config, unit, var, origin); a call site is
        (benchmark, config, unit, callee, site id).  Two attempts of the
        same job produce records with equal keys — one survives.
        """
        if kind == "loop":
            return (job, kind, d.get("benchmark", ""), d.get("config", ""),
                    d.get("unit", ""), d.get("var", ""),
                    d.get("origin") or "")
        return (job, kind, d.get("benchmark", ""), d.get("config", ""),
                d.get("unit", ""), d.get("callee", ""),
                d.get("site_id", 0))

    def merge(self, exported: Optional[Dict[str, Any]],
              job: Optional[str] = None, **stamp: Any) -> None:
        """Fold a child tracer's :meth:`export` — or a batch of foreign
        spans, ``{"spans": [...]}`` — into this trace.

        A span keeps the fields it was recorded with except those in
        ``stamp``: ``node=...`` puts the child's spans on the lane of the
        process or node that ran it.

        When the export carries a job tag (or ``job`` is passed),
        decision records are deduplicated against every previous merge
        of the same job: a worker that exported partially, was
        SIGKILLed, and re-ran contributes each decision exactly once.
        Spans are *not* deduplicated — both attempts really consumed
        wall clock and belong on the timeline.
        """
        if not self.enabled or not isinstance(exported, dict):
            return
        self._add([dict(span, **stamp) for span in exported.get("spans") or ()
                   if isinstance(span, dict)])
        job = job if job is not None else exported.get("job")
        for kind, records, cls, target in (
                ("loop", exported.get("decisions") or (),
                 LoopDecision, self.decisions),
                ("site", exported.get("site_decisions") or (),
                 SiteDecision, self.site_decisions)):
            for d in records:
                if not isinstance(d, dict):
                    continue
                if job is not None:
                    key = self._decision_key(job, kind, d)
                    if key in self._merged_decision_keys:
                        continue
                    self._merged_decision_keys.add(key)
                target.append(cls.from_dict(d))

    def to_chrome(self) -> Dict[str, Any]:
        """This trace as a Chrome trace-event object: one named process
        lane per node, decision records under ``loopDecisions`` /
        ``siteDecisions`` (see :func:`~repro.trace.chrome.stitch_spans`)."""
        return stitch_spans(
            self.spans(), label=self.label,
            decisions=[d.to_dict() for d in self.decisions],
            site_decisions=[d.to_dict() for d in self.site_decisions])


#: the shared disabled tracer — safe to use from any thread, records
#: nothing, and never allocates per call
NULL_TRACER = Tracer(enabled=False, label="null")
