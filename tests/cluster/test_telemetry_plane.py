"""The gateway's observability plane: trace propagation, span ingest,
exactly-once telemetry across node restarts, health enrichment, and the
``telemetry`` / ``trace-export`` ops."""

from repro.obs import metrics as obs_metrics
from repro.obs.distributed import TraceContext
from repro.service.server import ParallelizationServer


def _probe(op="echo", **extra):
    payload = {"kind": "probe", "probe": op}
    payload.update(extra)
    return payload


def _gateway(**kwargs):
    kwargs.setdefault("jobs", 0)
    kwargs.setdefault("retry_backoff", 0.0)
    return ParallelizationServer(tier="cluster", **kwargs)


def _trace_ctx():
    root = TraceContext()
    return root, {"traceparent": root.to_traceparent()}


def _submit_traced(gw, trace_ctx, payload=None):
    return gw.handle_request({"op": "submit",
                              "payload": payload or _probe(),
                              "trace_ctx": trace_ctx})


def _pull(gw, node, max_jobs=1):
    return gw.handle_request({"op": "work-pull", "node": node,
                              "wait": 0.0, "max_jobs": max_jobs})


def _span(node, trace_id, name="execute", span_id="feedbeefcafe0001"):
    return {"name": name, "cat": "worker", "node": node,
            "trace_id": trace_id, "span_id": span_id,
            "parent_id": None, "ts_wall": 1.0, "dur": 0.5}


class TestTracePropagation:
    def test_descriptor_carries_child_context(self):
        gw = _gateway()
        root, ctx = _trace_ctx()
        response = _submit_traced(gw, ctx)
        assert response["ok"], response
        pulled = _pull(gw, "w0")
        (descriptor,) = pulled["jobs"]
        carried = TraceContext.from_dict(descriptor["trace_ctx"])
        # same trace, but a fresh gateway-side span as the parent
        assert carried.trace_id == root.trace_id
        assert carried.span_id != root.span_id

    def test_untraced_descriptor_has_no_trace_ctx(self):
        gw = _gateway()
        gw.handle_request({"op": "submit", "payload": _probe()})
        pulled = _pull(gw, "w0")
        assert "trace_ctx" not in pulled["jobs"][0]

    def test_malformed_trace_ctx_rejected(self):
        gw = _gateway()
        response = _submit_traced(
            gw, {"traceparent": "not-a-traceparent"})
        assert response["ok"] is False
        assert response["code"] == "bad-request"

    def test_finished_job_records_gateway_spans(self):
        gw = _gateway()
        root, ctx = _trace_ctx()
        submitted = _submit_traced(gw, ctx)
        job_id = submitted["job_id"]
        pulled = _pull(gw, "w0")
        assert pulled["jobs"], pulled
        start = gw.handle_request({"op": "work-start",
                                   "node": "w0",
                                   "job_id": job_id})
        assert start["granted"]
        gw.handle_request({"op": "work-done", "node": "w0",
                           "job_id": job_id,
                           "result": {"echo": True}})
        export = gw.handle_request({"op": "trace-export"})
        names = {(s["name"], s["cat"]) for s in export["spans"]}
        assert ("queue-wait", "gateway") in names
        assert ("job", "gateway") in names
        assert {s["trace_id"] for s in export["spans"]} \
            == {root.trace_id}

    def test_cache_hit_still_records_job_span(self):
        gw = _gateway()
        root, ctx = _trace_ctx()
        first = _submit_traced(gw, ctx)
        pulled = _pull(gw, "w0")
        gw.handle_request({"op": "work-start", "node": "w0",
                           "job_id": first["job_id"]})
        gw.handle_request({"op": "work-done", "node": "w0",
                           "job_id": first["job_id"],
                           "result": {"echo": True}})
        # same payload again: answered from the shard tier
        root2, ctx2 = _trace_ctx()
        second = _submit_traced(gw, ctx2)
        assert second["cached"], second
        export = gw.handle_request({"op": "trace-export"})
        job_spans = [s for s in export["spans"]
                     if s["name"] == "job"
                     and s["trace_id"] == root2.trace_id]
        assert len(job_spans) == 1
        assert job_spans[0]["args"]["cached"] is True


class TestHeartbeatIngest:
    def test_spans_and_metrics_merge_exactly_once(self):
        gw = _gateway()
        message = {"op": "heartbeat", "node": "w0", "boot": "boot-a",
                   "wall": 123.0, "seq": 1,
                   "metrics": {"repro_jobs_completed_total": {
                       "kind": "counter", "help": "",
                       "values": [[[["state", "done"]], 2]]}},
                   "spans": [_span("w0", "t" * 32)]}
        first = gw.handle_request(dict(message))
        assert first["ok"]
        replay = gw.handle_request(dict(message))
        assert replay["ok"]
        export = gw.handle_request({"op": "trace-export"})
        assert len([s for s in export["spans"]
                    if s["node"] == "w0"]) == 1
        counter = obs_metrics.get_registry().counter(
            "repro_jobs_completed_total")
        assert counter.value(state="done") == 2

    def test_node_restart_resets_sequence(self):
        """Satellite: a node that restarts mid-run resets its sequence
        numbers; the new boot id reopens the stream at seq 1 without
        replaying the old incarnation's history."""
        gw = _gateway()
        metrics = {"repro_jobs_completed_total": {
            "kind": "counter", "help": "",
            "values": [[[["state", "done"]], 1]]}}
        for seq in (1, 2, 3):
            gw.handle_request(
                {"op": "heartbeat", "node": "w0", "boot": "boot-a",
                 "wall": 1.0, "seq": seq, "metrics": metrics,
                 "spans": [_span("w0", "t" * 32,
                                 span_id=f"a{seq:015d}")]})
        # stale replay from the old incarnation: dropped
        gw.handle_request(
            {"op": "heartbeat", "node": "w0", "boot": "boot-a",
             "wall": 1.0, "seq": 2, "metrics": metrics,
             "spans": [_span("w0", "t" * 32, span_id="a" + "2" * 15)]})
        # restart: fresh boot id, sequence starts over at 1
        restarted = gw.handle_request(
            {"op": "heartbeat", "node": "w0", "boot": "boot-b",
             "wall": 1.0, "seq": 1, "metrics": metrics,
             "spans": [_span("w0", "t" * 32, span_id="b" + "1" * 15)]})
        assert restarted["ok"]
        counter = obs_metrics.get_registry().counter(
            "repro_jobs_completed_total")
        # 3 pre-restart ships + 1 post-restart ship, replay dropped
        assert counter.value(state="done") == 4
        export = gw.handle_request({"op": "trace-export"})
        assert len([s for s in export["spans"]
                    if s["node"] == "w0"]) == 4
        events = gw.telemetry.events_since(0)
        restarts = [e for e in events if e["kind"] == "node-restart"]
        assert len(restarts) == 1
        assert restarts[0]["node"] == "w0"
        assert restarts[0]["boot"] == "boot-b"

    def test_heartbeat_wall_feeds_clock_model(self):
        gw = _gateway()
        gw.handle_request({"op": "heartbeat", "node": "w0",
                           "boot": "b", "wall": 1.0, "seq": 1,
                           "metrics": {}})
        export = gw.handle_request({"op": "trace-export"})
        assert "w0" in export["clock_offsets"]
        assert export["clock_offsets"]["w0"]["samples"] == 1


class TestHealthEnrichment:
    def test_health_has_uptime_heartbeat_and_lease_ages(self):
        gw = _gateway()
        gw.handle_request({"op": "heartbeat", "node": "w0",
                           "boot": "boot-a", "wall": 1.0,
                           "seq": 1, "metrics": {}})
        submitted = gw.handle_request({"op": "submit",
                                       "payload": _probe()})
        pulled = _pull(gw, "w0")
        assert pulled["jobs"]
        health = gw.handle_request({"op": "health"})
        cluster = health["cluster"]
        assert cluster["gateway_uptime"] >= 0.0
        assert cluster["run_id"] == gw.run_id
        worker = cluster["worker_nodes"]["w0"]
        assert worker["boot"] == "boot-a"
        assert worker["last_heartbeat_age"] >= 0.0
        assert submitted["job_id"] in worker["leases"]
        assert worker["oldest_lease_age"] >= 0.0

    def test_unleased_worker_has_no_oldest_lease(self):
        gw = _gateway()
        gw.handle_request({"op": "heartbeat", "node": "w0",
                           "boot": "b", "wall": 1.0, "seq": 1,
                           "metrics": {}})
        health = gw.handle_request({"op": "health"})
        worker = health["cluster"]["worker_nodes"]["w0"]
        assert worker["leases"] == {}
        assert worker["oldest_lease_age"] is None


class TestTelemetryOp:
    def test_snapshot_and_event_stream(self):
        gw = _gateway()
        gw.handle_request({"op": "heartbeat", "node": "w0",
                           "boot": "b", "wall": 1.0, "seq": 1,
                           "metrics": {}})
        frame = gw.handle_request({"op": "telemetry"})
        assert frame["ok"] and frame["tier"] == "cluster"
        snapshot = frame["snapshot"]
        assert "metrics" in snapshot and "health" in snapshot
        assert snapshot["health"]["queue_depth"] == 0
        kinds = [e["kind"] for e in frame["events"]]
        assert "node-join" in kinds
        # a second poll with events_since sees nothing new
        again = gw.handle_request(
            {"op": "telemetry", "events_since": frame["event_seq"]})
        assert again["events"] == []

    def test_snapshots_persist_when_directory_given(self, tmp_path):
        gw = _gateway(telemetry_dir=str(tmp_path), run_id="runA")
        gw.handle_request({"op": "telemetry"})
        from repro.obs.telemetry import TelemetryStore
        loaded = TelemetryStore.load_run(str(tmp_path), "runA")
        assert loaded.latest() is not None

    def test_trace_export_validates_trace_id(self):
        gw = _gateway()
        response = gw.handle_request({"op": "trace-export",
                                      "trace_id": 7})
        assert response["ok"] is False
        assert response["code"] == "bad-request"
