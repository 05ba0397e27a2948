"""Distributed tracing: trace contexts and cross-node clock offsets.

The cluster slices one job's causal story across machines — a submit
hits the gateway, the payload digest routes to a cache shard, a worker
node executes, decisions come back — and PR 3's in-process tracer
cannot follow it.  This module adds the three pieces that make the
story whole again (spans themselves are recorded by
:class:`repro.trace.Tracer`, the one recorder every tier uses):

* **Trace context** (:class:`TraceContext`): a W3C-traceparent-style
  identifier carried *beside* every payload (like the ``ctx``
  correlation IDs — never inside it, so payload digests and dedup are
  byte-identical with tracing on or off).  One ``trace_id`` names the
  whole distributed operation; each hop derives a child ``span_id``.

* **Span shipping**: spans carry *wall-clock* starts (the only clock
  that can be compared across machines).  Nodes drain their tracer
  into their existing streams — workers piggyback spans on heartbeats
  with an exactly-once sequence number, shards piggyback on cache
  responses — so tracing adds no new connections.

* **Clock offsets** (:class:`ClockModel`): every
  cross-node message carries the sender's wall clock; the receiver's
  offset sample ``local_recv - remote_send`` over-estimates the true
  clock offset by the one-way network delay, so the model keeps the
  *minimum* sample per node (the least-delayed message).  Rebasing each
  node's spans by its estimated offset puts the whole cluster on one
  timeline; :func:`repro.trace.chrome.stitch_spans` emits it as a
  single Perfetto-loadable Chrome trace with one process lane per node.

Everything is JSON-safe and dependency-free; a request without a
``trace_ctx`` costs one ``is None`` test per hop.
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from typing import Any, Dict, Optional

#: traceparent version emitted (the only one defined by W3C level 1)
TRACEPARENT_VERSION = "00"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


def new_trace_id() -> str:
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class TraceContext:
    """One hop's view of a distributed trace (immutable value object)."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: Optional[str] = None,
                 span_id: Optional[str] = None, sampled: bool = True):
        self.trace_id = trace_id or new_trace_id()
        self.span_id = span_id or new_span_id()
        self.sampled = sampled

    def child(self) -> "TraceContext":
        """A fresh span id under the same trace (the next hop's parent
        is this context's span)."""
        return TraceContext(self.trace_id, new_span_id(), self.sampled)

    def to_traceparent(self) -> str:
        flags = "01" if self.sampled else "00"
        return (f"{TRACEPARENT_VERSION}-{self.trace_id}-"
                f"{self.span_id}-{flags}")

    def to_dict(self) -> Dict[str, str]:
        """The wire shape carried beside payloads."""
        return {"traceparent": self.to_traceparent()}

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext":
        match = _TRACEPARENT_RE.match(header or "")
        if not match:
            raise ValueError(f"malformed traceparent {header!r}")
        _version, trace_id, span_id, flags = match.groups()
        if trace_id == "0" * 32 or span_id == "0" * 16:
            raise ValueError("traceparent trace-id/span-id must be "
                             "non-zero")
        return cls(trace_id, span_id, sampled=bool(int(flags, 16) & 1))

    @classmethod
    def from_dict(cls, obj: Optional[Dict[str, Any]]
                  ) -> Optional["TraceContext"]:
        """Parse a wire ``trace_ctx``; None when absent, ValueError when
        present but malformed."""
        if obj is None:
            return None
        if not isinstance(obj, dict):
            raise ValueError("'trace_ctx' must be an object")
        return cls.from_traceparent(obj.get("traceparent", ""))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.to_traceparent()})"


def validate_trace_ctx(obj: Any) -> Optional[str]:
    """Problem description for a wire ``trace_ctx`` field, or None.

    Like ``ctx`` (both checked by ``JobLedger.open_submit``) it rides
    beside the payload and must be rejected loudly rather than silently
    dropped.
    """
    if obj is None:
        return None
    try:
        TraceContext.from_dict(obj)
    except ValueError as exc:
        return f"bad 'trace_ctx': {exc}"
    return None


# ---------------------------------------------------------------------------
# clock-offset estimation
# ---------------------------------------------------------------------------

class ClockModel:
    """Per-node wall-clock offset estimates from one-way samples.

    A message from node *n* stamped with its send time ``remote`` and
    received locally at ``local`` yields the sample
    ``local - remote = offset(n) + delay`` where ``delay >= 0`` is the
    network latency.  The minimum sample over many messages (heartbeats
    arrive every second) converges on ``offset(n)`` plus the *minimum*
    delay — the same filtering NTP applies.  ``rebase`` then maps a
    remote wall timestamp into the local clock: ``remote + offset``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._offsets: Dict[str, float] = {}
        self._samples: Dict[str, int] = {}

    def observe(self, node: str, remote_wall: float,
                local_wall: Optional[float] = None) -> float:
        sample = (local_wall if local_wall is not None
                  else time.time()) - float(remote_wall)
        with self._lock:
            if node in self._offsets:
                self._offsets[node] = min(self._offsets[node], sample)
            else:
                self._offsets[node] = sample
            self._samples[node] = self._samples.get(node, 0) + 1
        return sample

    def offset(self, node: str) -> float:
        """Estimated ``local - remote`` clock offset (0.0 = unknown or
        the local node itself)."""
        with self._lock:
            return self._offsets.get(node, 0.0)

    def rebase(self, node: str, remote_wall: float) -> float:
        return float(remote_wall) + self.offset(node)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {node: {"offset": offset,
                           "samples": self._samples.get(node, 0)}
                    for node, offset in sorted(self._offsets.items())}

    @classmethod
    def from_offsets(cls, offsets: Dict[str, Any]) -> "ClockModel":
        """Rebuild from a ``to_dict`` export (the trace-collect client
        applies the gateway's estimates offline)."""
        model = cls()
        for node, info in (offsets or {}).items():
            if isinstance(info, dict):
                model._offsets[node] = float(info.get("offset", 0.0))
                model._samples[node] = int(info.get("samples", 0))
            else:
                model._offsets[node] = float(info)
        return model
