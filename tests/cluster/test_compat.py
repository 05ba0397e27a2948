"""Protocol compatibility: the synchronous
``repro.service.client.ServiceClient`` works unchanged against the
gateway — framing, dedup, cancel, oversize-error, the works.

Everything here talks to the gateway only through the public wire
surface of the single-node daemon.  ``repro serve`` and ``repro cluster
gateway`` are two front-ends of one job server class around one job
ledger: ``TestOneLedgerTwoShells`` replays one scripted session against
both and holds their answers equal.
"""

import socket
import struct
import threading

import pytest

from repro.obs.distributed import TraceContext
from repro.service import ledger as ledger_module
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ParallelizationServer


def _probe(op="echo", **extra):
    payload = {"kind": "probe", "probe": op}
    payload.update(extra)
    return payload


def _gateway_server(**kwargs):
    return ParallelizationServer(port=0, tier="cluster", **kwargs)


@pytest.fixture()
def gateway():
    gw = _gateway_server(jobs=2, inline=True, retry_backoff=0.01)
    gw.start()
    yield gw
    gw.stop()


@pytest.fixture()
def client(gateway):
    return ServiceClient(*gateway.address)


class TestClientSurface:
    def test_health_speaks_the_single_node_shape(self, client):
        health = client.health()
        assert health["ok"]
        # every key the single-node daemon's health answer carries
        for key in ("uptime", "draining", "queue_depth",
                    "queue_capacity", "jobs_by_state", "cache_stats"):
            assert key in health, f"missing single-node health key {key}"
        assert health["tier"] == "cluster"

    def test_submit_status_result_flow(self, client):
        submitted = client.submit(_probe(value=7), wait=True,
                                  wait_timeout=10)
        assert submitted["ok"] and submitted["state"] == "done"
        assert submitted["result"] == {"echo": 7}
        job_id = submitted["job_id"]
        assert client.status(job_id)["state"] == "done"
        assert client.result(job_id)["result"] == {"echo": 7}

    def test_result_of_unfinished_job(self, client):
        submitted = client.submit(_probe("sleep", seconds=0.5),
                                  wait=False)
        with pytest.raises(ServiceError) as excinfo:
            client.result(submitted["job_id"])
        assert excinfo.value.code in ("not-ready",)

    def test_cancel_flow(self, client):
        # saturate both embedded workers so the victim stays queued
        for i in range(2):
            client.submit(_probe("sleep", seconds=0.4, tag=f"busy-{i}"),
                          wait=False)
        victim = client.submit(_probe(value="victim"), wait=False)
        response = client.cancel(victim["job_id"])
        if response["canceled"]:
            assert client.status(victim["job_id"])["state"] == "canceled"
        else:
            # the fleet got to it first — still a valid protocol answer
            assert "not queued" in response["detail"]

    def test_concurrent_identical_submits_dedup(self, gateway, client):
        payload = _probe("sleep", seconds=0.3, tag="concurrent")
        responses = []

        def submit():
            c = ServiceClient(*gateway.address)
            responses.append(c.submit(payload, wait=True,
                                      wait_timeout=10))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        assert len(responses) == 2
        assert responses[0]["job_id"] == responses[1]["job_id"]
        metrics = client.metrics()["metrics"]
        assert metrics["repro_jobs_deduped_total"] >= 1
        assert metrics["repro_jobs_submitted_total"] == 1

    def test_metrics_formats(self, client):
        json_form = client.metrics()
        assert json_form["ok"]
        assert "repro_jobs_submitted_total" in json_form["metrics"]
        prom = client.metrics(format="prometheus")
        assert "# TYPE repro_jobs_submitted_total counter" in prom["text"]
        with pytest.raises(ServiceError):
            client.metrics(format="xml")

    def test_backpressure_over_the_wire(self):
        gw = _gateway_server(jobs=0, queue_capacity=1)
        gw.start()
        try:
            client = ServiceClient(*gw.address)
            client.submit(_probe(value="fills-queue"), wait=False)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(_probe(value="rejected"), wait=False)
            assert excinfo.value.code == "backpressure"
        finally:
            gw.stop()

    def test_shutdown_op_stops_gateway(self, gateway, client):
        response = client.shutdown()
        assert response["ok"] and response["stopping"]
        assert "_shutdown" not in response  # internal marker never leaks
        assert "_drain" not in response
        assert gateway.wait(timeout=10)
        assert not gateway.running


class TestFraming:
    def test_raw_frame_roundtrip(self, gateway):
        # bypass the client: hand-built length-prefixed frames
        with socket.create_connection(gateway.address, timeout=5) as sock:
            protocol.send_message(sock, {"op": "health"})
            response = protocol.recv_message(sock)
            assert response["ok"] and response["tier"] == "cluster"
            # multiple requests on one connection
            protocol.send_message(sock, {"op": "metrics"})
            assert protocol.recv_message(sock)["ok"]

    def test_garbage_frame_closes_connection(self, gateway):
        with socket.create_connection(gateway.address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", 12) + b"not-json-at!")
            # gateway drops the session instead of crashing
            assert sock.recv(1024) == b""
        # and keeps serving others
        assert ServiceClient(*gateway.address).health()["ok"]

    def test_oversize_frame_header_closes_connection(self, gateway):
        with socket.create_connection(gateway.address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
            assert sock.recv(1024) == b""
        assert ServiceClient(*gateway.address).health()["ok"]

    def test_oversize_response_answered_with_error(self, gateway,
                                                   client, monkeypatch):
        # a result that fits a frame at submit time but not after the
        # frame limit shrinks: the gateway answers with an oversize
        # error instead of silently dropping the connection
        big = client.submit(_probe(value="x" * 4096), wait=False)
        monkeypatch.setattr(protocol, "MAX_FRAME", 1024)
        with pytest.raises(ServiceError) as excinfo:
            client.result(big["job_id"], wait=True, wait_timeout=10)
        assert excinfo.value.code == "oversize"
        monkeypatch.undo()
        # the session survives: same client keeps working
        assert client.result(big["job_id"], wait=True,
                             wait_timeout=10)["ok"]


# ---------------------------------------------------------------------------
# one ledger, one server class, two front-ends
# ---------------------------------------------------------------------------

def _start_daemon(**kwargs):
    server = ParallelizationServer(port=0, jobs=2, inline=True,
                                   retry_backoff=0.01, **kwargs)
    server.start()
    return server, server.stop


def _start_gateway(**kwargs):
    gw = _gateway_server(jobs=2, inline=True, retry_backoff=0.01, **kwargs)
    gw.start()
    return gw, gw.stop


SHELLS = {"daemon": _start_daemon, "gateway": _start_gateway}

#: response fields that legitimately differ between two runs or tiers
_VOLATILE = ("latency", "uptime", "tier", "cluster")


def _normalise(value, ids):
    """Drop volatile fields; rename job ids by order of appearance."""
    if isinstance(value, dict):
        return {k: _normalise(v, ids) for k, v in value.items()
                if k not in _VOLATILE}
    if isinstance(value, list):
        return [_normalise(v, ids) for v in value]
    if isinstance(value, str):
        for job_id, alias in ids.items():
            value = value.replace(job_id, alias)
    return value


def _scripted_session(address):
    """One client session over a raw connection; every response, errors
    included, normalised for comparison."""
    ids = {}
    transcript = []
    root = TraceContext()
    with socket.create_connection(address, timeout=15) as sock:
        def ask(label, **request):
            for key, value in list(request.items()):
                if key == "job_id" and value in ids.values():
                    request[key] = next(j for j, alias in ids.items()
                                        if alias == value)
            protocol.send_message(sock, request)
            response = protocol.recv_message(sock)
            job_id = response.get("job_id")
            if isinstance(job_id, str) and job_id not in ids:
                ids[job_id] = f"job-{len(ids)}"
            transcript.append((label, response))
            return response

        ask("health", op="health")
        ask("submit", op="submit", payload=_probe(value="one"), wait=True,
            wait_timeout=10)
        ask("cached", op="submit", payload=_probe(value="one"), wait=True,
            wait_timeout=10)
        ask("traced", op="submit", payload=_probe(value="two"), wait=True,
            wait_timeout=10,
            trace_ctx={"traceparent": root.to_traceparent()},
            ctx={"run_id": "session"})
        ask("status", op="status", job_id="job-0")
        ask("result", op="result", job_id="job-0", wait=True)
        ask("cancel finished", op="cancel", job_id="job-0")
        ask("status unknown", op="status", job_id="job-999999")
        ask("result unknown", op="result", job_id="job-999999")
        ask("no payload", op="submit")
        ask("bad kind", op="submit", payload={"kind": "nonsense"})
        ask("bad ctx", op="submit", payload=_probe(), ctx={"a": [1]})
        ask("bad trace", op="submit", payload=_probe(),
            trace_ctx={"traceparent": "zz"})
        ask("failed job", op="submit", wait=True, wait_timeout=30,
            payload={"kind": "benchmark", "benchmark": "no-such"})
        ask("failed result", op="result", job_id="job-3")
        ask("bad format", op="metrics", format="xml")
        ask("bad trace id", op="trace-export", trace_id=7)
        metrics = ask("metrics", op="metrics")
        telemetry = ask("telemetry", op="telemetry")
        export = ask("trace-export", op="trace-export",
                     trace_id=root.trace_id)
        ask("health after", op="health")
        ask("shutdown", op="shutdown")
    # the bulky answers are compared by what both tiers promise of them
    summary = {
        "job counters": {k: v for k, v in metrics["metrics"].items()
                         if k.startswith(("repro_jobs_", "repro_cache_",
                                          "repro_loops_",
                                          "repro_queue_"))
                         and "latency" not in k},
        "telemetry keys": sorted(telemetry),
        "snapshot health keys": sorted(
            set(telemetry["snapshot"]["health"]) - {"cluster"}),
        "export keys": sorted(export),
        "ledger spans": sorted(
            s["name"] for s in export["spans"]
            if s["name"] in ("job", "queue-wait", "execute")),
        "trace ids": export["trace_ids"] == [root.trace_id],
    }
    plain = [(label, _normalise(response, ids))
             for label, response in transcript
             if label not in ("metrics", "telemetry", "trace-export")]
    return plain, summary


class TestOneLedgerTwoShells:
    def test_scripted_session_answers_match(self):
        sessions = {}
        for name, start in SHELLS.items():
            shell, stop = start(queue_capacity=32)
            try:
                sessions[name] = _scripted_session(shell.address)
                assert shell.wait(timeout=10)  # the shutdown op landed
            finally:
                stop()
        daemon, gateway = sessions["daemon"], sessions["gateway"]
        for (label, a), (_label, b) in zip(daemon[0], gateway[0]):
            assert a == b, f"{label}: daemon {a} != gateway {b}"
        assert daemon[1] == gateway[1]
        # sanity: the session exercised what it claims to
        answers = dict(daemon[0])
        assert answers["cached"]["cached"] is True
        assert answers["status unknown"]["code"] == "not-found"
        assert answers["failed result"]["code"] == "failed"
        assert daemon[1]["ledger spans"] == ["execute", "job",
                                             "queue-wait"]

    @pytest.mark.parametrize("name", sorted(SHELLS))
    def test_malformed_submit_never_stalls_execution(self, name):
        """A ``deadline`` of ``"soon"`` used to be admitted; the executor
        that claimed it died in ``Job.expired``, and with every executor
        gone each later job stayed queued."""
        shell, stop = SHELLS[name]()
        try:
            client = ServiceClient(*shell.address)
            bad = [("deadline", "soon")] * (shell.workers + 1) + [
                ("wait_timeout", "later"), ("max_retries", "many")]
            for i, (key, value) in enumerate(bad):
                with pytest.raises(ServiceError) as excinfo:
                    client.request({"op": "submit", key: value,
                                    "payload": _probe(value=f"bad-{i}")})
                assert excinfo.value.code == "bad-request"
                assert key in str(excinfo.value)
            later = client.submit(_probe(value="later"), wait=True,
                                  wait_timeout=10)
            assert later["state"] == "done"
            assert later["result"] == {"echo": "later"}
        finally:
            stop()

    @pytest.mark.parametrize("name", sorted(SHELLS))
    def test_job_table_stays_bounded(self, name, monkeypatch):
        keep, extra = 6, 5
        monkeypatch.setattr(ledger_module, "KEEP_FINISHED", keep)
        shell, stop = SHELLS[name]()
        try:
            client = ServiceClient(*shell.address)
            root = TraceContext()
            submitted = [client.submit(
                _probe(value=f"bounded-{i % 7}"), wait=True,
                wait_timeout=10,
                trace_ctx={"traceparent": root.to_traceparent()})
                for i in range(keep + extra)]
            assert all(r["state"] == "done" for r in submitted)
            ledger = shell.ledger
            assert len(ledger.jobs) == keep
            assert set(ledger.traced) <= set(ledger.jobs)
            with pytest.raises(ServiceError) as excinfo:
                client.status(submitted[0]["job_id"])
            assert excinfo.value.code == "not-found"
            assert client.result(submitted[-1]["job_id"])["ok"]
            export = client.trace_export()
            assert export["ok"] and export["spans"]
        finally:
            stop()
