"""Telemetry plane: merged metric snapshots, health events, span store.

The gateway already merges per-node metric deltas exactly once (PR 7);
this module gives those merged numbers — plus discrete health events
like dead-node sweeps and work steals — somewhere to *live*:

* :class:`TelemetryStore` keeps a bounded ring of periodic snapshots
  (merged metrics + cluster health) and a sequence-numbered event log,
  optionally persisted as JSONL under ``.repro_cache/telemetry/`` so
  ``repro report`` and post-mortems can read a run after the gateway
  is gone.

* :class:`SpanStore` collects distributed span dicts (see
  :mod:`repro.obs.distributed`) keyed by trace id, also with optional
  JSONL persistence, feeding ``repro trace-collect``.

Both are thread-safe: the job server's connection, executor and
publisher threads append and read concurrently, and tests poke them
directly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

#: default cap on retained snapshots / events / spans (memory guard)
DEFAULT_SNAPSHOT_KEEP = 720
DEFAULT_EVENT_KEEP = 2000
DEFAULT_SPAN_KEEP = 50_000

TELEMETRY_DIRNAME = "telemetry"


def telemetry_dir(cache_dir: str) -> str:
    return os.path.join(cache_dir, TELEMETRY_DIRNAME)


class TelemetryStore:
    """Bounded in-memory telemetry with optional JSONL persistence."""

    def __init__(self, directory: Optional[str] = None,
                 run_id: Optional[str] = None,
                 snapshot_keep: int = DEFAULT_SNAPSHOT_KEEP,
                 event_keep: int = DEFAULT_EVENT_KEEP):
        self.directory = directory
        self.run_id = run_id or "run"
        self.snapshot_keep = snapshot_keep
        self.event_keep = event_keep
        self._lock = threading.Lock()
        self._snapshots: List[Dict[str, Any]] = []
        self._events: List[Dict[str, Any]] = []
        self._event_seq = 0
        self._snapshot_file = None
        self._event_file = None
        if directory:
            os.makedirs(directory, exist_ok=True)
            self._snapshot_path = os.path.join(
                directory, f"{self.run_id}.snapshots.jsonl")
            self._event_path = os.path.join(
                directory, f"{self.run_id}.events.jsonl")
        else:
            self._snapshot_path = self._event_path = None

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
        self._persist(self._snapshot_path, snapshot)
        return snapshot

    def add_event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        with self._lock:
            self._event_seq += 1
            event = {"seq": self._event_seq, "at": time.time(),
                     "kind": kind, **fields}
            self._events.append(event)
            if len(self._events) > self.event_keep:
                del self._events[:len(self._events) - self.event_keep]
        self._persist(self._event_path, event)
        return event

    def _persist(self, path: Optional[str], record: Dict[str, Any]) -> None:
        if not path:
            return
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        try:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line)
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
        runs = {name[:-len(".snapshots.jsonl")] for name in names
                if name.endswith(".snapshots.jsonl")}
        runs |= {name[:-len(".events.jsonl")] for name in names
                 if name.endswith(".events.jsonl")}
        return sorted(runs)

    @classmethod
    def load_run(cls, directory: str, run_id: str) -> "TelemetryStore":
        store = cls(directory=None, run_id=run_id,
                    snapshot_keep=10**9, event_keep=10**9)
        for snap in cls.load_jsonl(os.path.join(
                directory, f"{run_id}.snapshots.jsonl")):
            if isinstance(snap, dict) and "metrics" in snap:
                store.add_snapshot(snap.get("metrics") or {},
                                   snap.get("health") or {},
                                   at=snap.get("at"))
        for event in cls.load_jsonl(os.path.join(
                directory, f"{run_id}.events.jsonl")):
            if isinstance(event, dict) and "kind" in event:
                fields = {k: v for k, v in event.items()
                          if k not in ("seq", "at", "kind")}
                store.add_event(event["kind"], **fields)
        return store


class SpanStore:
    """Bounded store of distributed span dicts, keyed by trace id."""

    def __init__(self, directory: Optional[str] = None,
                 run_id: Optional[str] = None,
                 keep: int = DEFAULT_SPAN_KEEP):
        self.directory = directory
        self.run_id = run_id or "run"
        self.keep = keep
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        if directory:
            os.makedirs(directory, exist_ok=True)
            self._path = os.path.join(directory,
                                      f"{self.run_id}.spans.jsonl")
        else:
            self._path = None

    def add(self, spans: Iterable[Dict[str, Any]]) -> int:
        batch = [s for s in spans if isinstance(s, dict)]
        if not batch:
            return 0
        with self._lock:
            self._spans.extend(batch)
            overflow = len(self._spans) - self.keep
            if overflow > 0:
                del self._spans[:overflow]
                self.dropped += overflow
        if self._path:
            try:
                with open(self._path, "a", encoding="utf-8") as fh:
                    for span in batch:
                        fh.write(json.dumps(span, sort_keys=True,
                                            default=str) + "\n")
            except OSError:
                pass
        return len(batch)

    def spans(self, trace_id: Optional[str] = None
              ) -> List[Dict[str, Any]]:
        with self._lock:
            if trace_id is None:
                return list(self._spans)
            return [s for s in self._spans
                    if s.get("trace_id") == trace_id]

    def trace_ids(self) -> List[str]:
        with self._lock:
            return sorted({s.get("trace_id") for s in self._spans
                           if s.get("trace_id")})

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    @classmethod
    def load_run(cls, directory: str, run_id: str) -> "SpanStore":
        store = cls(directory=None, run_id=run_id, keep=10**9)
        store.add(TelemetryStore.load_jsonl(
            os.path.join(directory, f"{run_id}.spans.jsonl")))
        return store
