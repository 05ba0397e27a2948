"""Telemetry plane: merged metric snapshots, health events, spans.

The gateway already merges per-node drained metrics exactly once;
this module gives those merged numbers — plus discrete health events
like dead-node sweeps and work steals — somewhere to *live*:

:class:`TelemetryStore` keeps three streams: a bounded ring of
periodic snapshots (merged metrics + cluster health), a
sequence-numbered event log, and the run's spans — its
:class:`~repro.trace.Tracer`, the buffer every span the tier records or
receives lands in.  Each stream is optionally persisted as JSONL under
``.repro_cache/telemetry/`` (``<run_id>.{snapshots,events,spans}.jsonl``)
so ``repro report``, ``repro trace-collect`` and post-mortems can read a
run after the gateway is gone.

The store is thread-safe: the job server's connection, executor and
publisher threads append and read concurrently, and tests poke it
directly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from functools import partial
from typing import Any, Dict, List, Optional

from repro.trace.tracer import DEFAULT_SPAN_KEEP, Tracer

#: default cap on retained snapshots / events (memory guard)
DEFAULT_SNAPSHOT_KEEP = 720
DEFAULT_EVENT_KEEP = 2000

_STREAMS = ("snapshots", "events", "spans")

TELEMETRY_DIRNAME = "telemetry"


def telemetry_dir(cache_dir: str) -> str:
    return os.path.join(cache_dir, TELEMETRY_DIRNAME)


class TelemetryStore:
    """Bounded in-memory telemetry with optional JSONL persistence."""

    def __init__(self, directory: Optional[str] = None,
                 run_id: Optional[str] = None, node: Optional[str] = None,
                 snapshot_keep: int = DEFAULT_SNAPSHOT_KEEP,
                 event_keep: int = DEFAULT_EVENT_KEEP,
                 span_keep: int = DEFAULT_SPAN_KEEP):
        self.directory = directory
        self.run_id = run_id or "run"
        self.snapshot_keep = snapshot_keep
        self.event_keep = event_keep
        self._lock = threading.Lock()
        self._snapshots: List[Dict[str, Any]] = []
        self._events: List[Dict[str, Any]] = []
        self._event_seq = 0
        self._snapshot_path = self._event_path = span_path = None
        if directory:
            os.makedirs(directory, exist_ok=True)
            self._snapshot_path, self._event_path, span_path = (
                os.path.join(directory, f"{self.run_id}.{stream}.jsonl")
                for stream in _STREAMS)
        #: the run's spans, recorded here (on lane ``node``) or shipped
        #: from other nodes
        self.tracer = Tracer(
            label=node or self.run_id, keep=span_keep,
            sink=partial(self._persist, span_path) if span_path else None)

    # -- writes ------------------------------------------------------------

    def add_snapshot(self, metrics: Dict[str, Any],
                     health: Optional[Dict[str, Any]] = None,
                     at: Optional[float] = None) -> Dict[str, Any]:
        snapshot = {
            "at": time.time() if at is None else at,
            "metrics": metrics,
            "health": health or {},
        }
        with self._lock:
            self._snapshots.append(snapshot)
            if len(self._snapshots) > self.snapshot_keep:
                del self._snapshots[:len(self._snapshots)
                                    - self.snapshot_keep]
        self._persist(self._snapshot_path, [snapshot])
        return snapshot

    def add_event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        with self._lock:
            self._event_seq += 1
            event = {"seq": self._event_seq, "at": time.time(),
                     "kind": kind, **fields}
            self._events.append(event)
            if len(self._events) > self.event_keep:
                del self._events[:len(self._events) - self.event_keep]
        self._persist(self._event_path, [event])
        return event

    def _persist(self, path: Optional[str],
                 records: List[Dict[str, Any]]) -> None:
        if not path:
            return
        lines = "".join(json.dumps(record, sort_keys=True, default=str)
                        + "\n" for record in records)
        try:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(lines)
        except OSError:
            pass  # telemetry must never take the gateway down

    # -- reads -------------------------------------------------------------

    def latest(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._snapshots[-1] if self._snapshots else None

    def snapshots(self, since: Optional[float] = None,
                  limit: Optional[int] = None) -> List[Dict[str, Any]]:
        with self._lock:
            out = [s for s in self._snapshots
                   if since is None or s["at"] > since]
        if limit is not None:
            out = out[-limit:]
        return out

    def events_since(self, seq: int, limit: int = 200
                     ) -> List[Dict[str, Any]]:
        with self._lock:
            return [e for e in self._events if e["seq"] > seq][:limit]

    def event_seq(self) -> int:
        with self._lock:
            return self._event_seq

    def window(self, seconds: float) -> List[Dict[str, Any]]:
        """Snapshots covering the trailing window, oldest first.

        Always includes the snapshot immediately *before* the window
        start when one exists, so counter deltas over the window have a
        baseline.
        """
        cutoff = time.time() - seconds
        with self._lock:
            inside = [s for s in self._snapshots if s["at"] >= cutoff]
            before = [s for s in self._snapshots if s["at"] < cutoff]
        if before:
            inside = [before[-1]] + inside
        return inside

    # -- offline -----------------------------------------------------------

    @staticmethod
    def load_jsonl(path: str) -> List[Dict[str, Any]]:
        records = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        records.append(json.loads(line))
                    except ValueError:
                        continue  # torn tail line from a crash
        except OSError:
            return []
        return records

    @classmethod
    def runs(cls, directory: str) -> List[str]:
        """Run ids with persisted telemetry under ``directory``."""
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return sorted({name[:-len(f".{stream}.jsonl")] for name in names
                       for stream in _STREAMS
                       if name.endswith(f".{stream}.jsonl")})

    @classmethod
    def load_run(cls, directory: str, run_id: str) -> "TelemetryStore":
        """A run's persisted streams, read back verbatim: each snapshot
        and event keeps the ``at`` (and ``seq``) it was written with."""
        store = cls(directory=None, run_id=run_id, snapshot_keep=10**9,
                    event_keep=10**9, span_keep=10**9)
        snapshots, events, spans = (
            [r for r in cls.load_jsonl(os.path.join(
                directory, f"{run_id}.{stream}.jsonl"))
             if isinstance(r, dict)] for stream in _STREAMS)
        store._snapshots = [s for s in snapshots if "metrics" in s
                            and isinstance(s.get("at"), (int, float))]
        store._events = [e for e in events if "kind" in e
                         and isinstance(e.get("seq"), int)]
        store._event_seq = max((e["seq"] for e in store._events), default=0)
        store.tracer.merge({"spans": spans})
        return store
