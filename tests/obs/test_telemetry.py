"""The telemetry store's three streams — snapshots, events, spans:
bounds, event sequencing, persistence."""

import json
import os
import time

from repro.obs.telemetry import TelemetryStore, telemetry_dir


class TestTelemetryStore:
    def test_snapshot_roundtrip(self):
        store = TelemetryStore()
        store.add_snapshot({"m": 1}, {"uptime": 3.0}, at=100.0)
        store.add_snapshot({"m": 2}, {"uptime": 4.0}, at=101.0)
        assert store.latest()["metrics"] == {"m": 2}
        assert [s["at"] for s in store.snapshots()] == [100.0, 101.0]

    def test_snapshot_bound(self):
        store = TelemetryStore(snapshot_keep=3)
        for i in range(6):
            store.add_snapshot({"i": i}, at=float(i))
        assert [s["metrics"]["i"] for s in store.snapshots()] == [3, 4, 5]

    def test_events_are_sequenced(self):
        store = TelemetryStore()
        store.add_event("node-join", node="w0")
        store.add_event("node-dead", node="w0")
        events = store.events_since(0)
        assert [e["seq"] for e in events] == [1, 2]
        assert store.events_since(1)[0]["kind"] == "node-dead"
        assert store.events_since(2) == []
        assert store.event_seq() == 2

    def test_window_includes_pre_window_baseline(self):
        import time
        store = TelemetryStore()
        now = time.time()
        for i in range(5):
            store.add_snapshot({"i": i}, at=now - 4.0 + i)
        window = store.window(seconds=1.5)
        # now-1, now are inside; now-2 rides along as the delta baseline
        assert [s["metrics"]["i"] for s in window] == [2, 3, 4]

    def test_persistence_and_load_run(self, tmp_path):
        directory = str(tmp_path)
        store = TelemetryStore(directory, run_id="r1")
        store.add_snapshot({"m": 1}, at=50.0)
        store.add_event("node-join", node="w0")
        assert TelemetryStore.runs(directory) == ["r1"]
        loaded = TelemetryStore.load_run(directory, "r1")
        assert loaded.latest()["metrics"] == {"m": 1}
        assert loaded.events_since(0)[0]["kind"] == "node-join"

    def test_load_run_keeps_event_time_and_seq(self, tmp_path):
        """A post-mortem read shows when each event happened, not when
        the run was loaded, under the sequence numbers it was written
        with."""
        directory = str(tmp_path)
        store = TelemetryStore(directory, run_id="r1")
        for node in ("w0", "w1", "w2"):
            store.add_event("node-join", node=node)
        written = store.events_since(1)  # a reader already saw seq 1
        time.sleep(0.05)
        loaded = TelemetryStore.load_run(directory, "r1")
        assert loaded.events_since(1) == written
        assert loaded.event_seq() == 3

    def test_load_tolerates_torn_trailing_line(self, tmp_path):
        directory = str(tmp_path)
        store = TelemetryStore(directory, run_id="r1")
        store.add_snapshot({"m": 1}, at=50.0)
        path = os.path.join(directory, "r1.snapshots.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"at": 51.0, "metrics": {"m"')  # crashed mid-write
        loaded = TelemetryStore.load_run(directory, "r1")
        assert len(loaded.snapshots()) == 1

    def test_memory_only_store_never_touches_disk(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = TelemetryStore()  # no directory
        store.add_snapshot({"m": 1})
        store.add_event("x")
        assert os.listdir(str(tmp_path)) == []


class TestSpanStore:
    """The spans stream: the store's tracer, persisted as JSONL."""

    def _span(self, name, trace_id="t" * 32, node="gateway"):
        return {"name": name, "cat": "x", "node": node,
                "trace_id": trace_id, "span_id": "s" + name,
                "parent_id": None, "ts_wall": 0.0, "dur": 0.0}

    def test_add_and_filter_by_trace(self):
        store = TelemetryStore()
        store.tracer.merge({"spans": [self._span("a"),
                                      self._span("b", trace_id="u" * 32)]})
        spans = store.tracer.spans()
        assert len(spans) == 2
        assert [s["name"] for s in spans
                if s["trace_id"] == "u" * 32] == ["b"]

    def test_bounded_with_drop_count(self):
        store = TelemetryStore(span_keep=2)
        store.tracer.merge({"spans": [self._span(n)
                                      for n in ("a", "b", "c")]})
        assert store.tracer.dropped == 1
        assert [s["name"] for s in store.tracer.spans()] == ["b", "c"]

    def test_persist_and_load_run(self, tmp_path):
        directory = str(tmp_path)
        store = TelemetryStore(directory, run_id="r1")
        store.tracer.merge({"spans": [self._span("a"), self._span("b")]})
        assert TelemetryStore.runs(directory) == ["r1"]
        loaded = TelemetryStore.load_run(directory, "r1")
        assert loaded.tracer.spans() == store.tracer.spans()

    def test_spans_jsonl_is_one_object_per_line(self, tmp_path):
        store = TelemetryStore(str(tmp_path), run_id="r1")
        store.tracer.merge({"spans": [self._span("a"), self._span("b")]})
        path = os.path.join(str(tmp_path), "r1.spans.jsonl")
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert [s["name"] for s in lines] == ["a", "b"]


def test_telemetry_dir_is_under_cache_dir(tmp_path):
    assert telemetry_dir(str(tmp_path)) == \
        os.path.join(str(tmp_path), "telemetry")
