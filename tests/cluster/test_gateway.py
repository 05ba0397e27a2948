"""Gateway tests: the job server as ``repro cluster gateway`` runs it.

The unit half calls :meth:`ParallelizationServer.handle_request`
directly on an unstarted gateway, playing both the client and a fake
worker node — lease grants, stealing, stale reports, crash retry,
heartbeat merge, and the dead-node sweep are all asserted without
sockets.

The end-to-end half runs a started gateway with embedded local workers
and the real synchronous client, including the drain guarantee: a
SIGTERM/`shutdown drain` gateway finishes every accepted job before
exiting (no accepted job is lost).
"""

import collections
import sys
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobState, payload_digest
from repro.service.server import ParallelizationServer


def _probe(op="echo", **extra):
    payload = {"kind": "probe", "probe": op}
    payload.update(extra)
    return payload


def _gateway(**kwargs):
    kwargs.setdefault("jobs", 0)             # execution comes from the fleet
    kwargs.setdefault("retry_backoff", 0.0)  # immediate requeue in tests
    return ParallelizationServer(tier="cluster", **kwargs)


def _submit(gw, payload, **extra):
    request = {"op": "submit", "payload": payload}
    request.update(extra)
    return gw.handle_request(request)


def _pull(gw, node, wait=0.0, max_jobs=1):
    return gw.handle_request({"op": "work-pull", "node": node,
                              "wait": wait, "max_jobs": max_jobs})


class TestSubmitValidation:
    def test_missing_payload(self):
        gw = _gateway()
        response = gw.handle_request({"op": "submit"})
        assert response["ok"] is False
        assert response["code"] == "bad-request"

    def test_unknown_kind(self):
        gw = _gateway()
        response = _submit(gw, {"kind": "nonsense"})
        assert response["code"] == "bad-request"

    def test_unknown_op(self):
        gw = _gateway()
        response = gw.handle_request({"op": "frobnicate"})
        assert response["code"] == "bad-op"

    def test_unknown_job(self):
        gw = _gateway()
        response = gw.handle_request({"op": "status",
                                      "job_id": "job-999999"})
        assert response["code"] == "not-found"


class TestLeaseLifecycle:
    def test_pull_start_done_roundtrip(self):
        gw = _gateway()
        submitted = _submit(gw, _probe(value=7))
        assert submitted["ok"] and submitted["state"] == "queued"
        job_id = submitted["job_id"]

        pulled = _pull(gw, "node-a")
        assert [j["job_id"] for j in pulled["jobs"]] == [job_id]
        start = gw.handle_request(
            {"op": "work-start", "node": "node-a", "job_id": job_id})
        assert start["granted"] and start["attempts"] == 1
        done = gw.handle_request(
            {"op": "work-done", "node": "node-a", "job_id": job_id,
             "result": {"echo": 7}})
        assert done["accepted"]

        result = gw.handle_request({"op": "result",
                                    "job_id": job_id})
        assert result["ok"] and result["result"] == {"echo": 7}
        # the finished result landed in the shard cache
        digest = payload_digest(_probe(value=7))
        assert gw.cache.get(digest) == {"echo": 7}

    def test_inflight_dedup_and_cache_hit(self):
        gw = _gateway()
        first = _submit(gw, _probe(value=1))
        second = _submit(gw, _probe(value=1))
        assert second["job_id"] == first["job_id"]
        assert second["deduped"]
        metrics = gw.metrics.to_json()
        assert metrics["repro_jobs_deduped_total"] == 1
        assert metrics["repro_jobs_submitted_total"] == 1

        # finish it; an identical later submit is a shard-cache hit
        pulled = _pull(gw, "n")
        job_id = pulled["jobs"][0]["job_id"]
        gw.handle_request({"op": "work-start", "node": "n",
                           "job_id": job_id})
        gw.handle_request({"op": "work-done", "node": "n",
                           "job_id": job_id,
                           "result": {"echo": 1}})
        third = _submit(gw, _probe(value=1), wait=True)
        assert third["state"] == "done" and third["cached"]
        assert third["result"] == {"echo": 1}
        assert gw.metrics.to_json()["repro_cache_hits_total"] == 1

    def test_backpressure_when_queue_full(self):
        gw = _gateway(queue_capacity=1)
        first = _submit(gw, _probe(value="a"))
        assert first["ok"]
        second = _submit(gw, _probe(value="b"))
        assert second["ok"] is False
        assert second["code"] == "backpressure"
        assert gw.metrics.to_json()[
            "repro_jobs_rejected_total"] == 1

    def test_cancel_queued_job_revokes_lease(self):
        gw = _gateway()
        submitted = _submit(gw, _probe(value="x"))
        job_id = submitted["job_id"]
        pulled = _pull(gw, "n")   # leased but not started
        assert pulled["jobs"]
        canceled = gw.handle_request({"op": "cancel",
                                      "job_id": job_id})
        assert canceled["canceled"] is True
        start = gw.handle_request(
            {"op": "work-start", "node": "n", "job_id": job_id})
        assert start["granted"] is False

    def test_deadline_expired_while_queued(self):
        gw = _gateway()
        submitted = _submit(gw, _probe(value="late"),
                            deadline=0.01)
        time.sleep(0.05)
        pulled = _pull(gw, "n")
        assert pulled["jobs"] == []
        status = gw.handle_request(
            {"op": "status", "job_id": submitted["job_id"]})
        assert status["state"] == "timeout"


class TestWorkStealing:
    def test_idle_node_steals_from_backlogged_node(self):
        gw = _gateway()
        ids = []
        for i in range(3):
            response = _submit(gw, _probe(value=i))
            ids.append(response["job_id"])
        # node-a leases everything, starts none
        pulled = _pull(gw, "node-a", max_jobs=3)
        assert len(pulled["jobs"]) == 3
        # node-b finds an empty queue and steals one lease
        stolen = _pull(gw, "node-b")
        assert len(stolen["jobs"]) == 1
        victim_job = stolen["jobs"][0]["job_id"]
        assert gw.metrics.to_json()[
            "repro_cluster_steals_total"] == 1
        assert gw.metrics.to_json()["repro_cluster_pulls_total"] \
            == {'{outcome="jobs"}': 1, '{outcome="steal"}': 1}
        # the victim's work-start for the stolen job is refused —
        # the job can never run twice
        refused = gw.handle_request(
            {"op": "work-start", "node": "node-a",
             "job_id": victim_job})
        assert refused["granted"] is False
        assert "lease moved" in refused["reason"]
        granted = gw.handle_request(
            {"op": "work-start", "node": "node-b",
             "job_id": victim_job})
        assert granted["granted"] is True

    def test_nothing_to_steal_reports_empty(self):
        gw = _gateway()
        pulled = _pull(gw, "bored")
        assert pulled["jobs"] == []
        assert gw.metrics.to_json()["repro_cluster_pulls_total"] \
            == {'{outcome="empty"}': 1}


class TestFailureReports:
    def _leased_running(self, gw, node="n", **probe):
        submitted = _submit(gw, _probe(**probe))
        job_id = submitted["job_id"]
        _pull(gw, node)
        start = gw.handle_request({"op": "work-start",
                                   "node": node, "job_id": job_id})
        assert start["granted"]
        return job_id

    def test_crash_is_retried_then_completes(self):
        gw = _gateway(max_retries=1)
        job_id = self._leased_running(gw, value="crashy")
        failed = gw.handle_request(
            {"op": "work-fail", "node": "n", "job_id": job_id,
             "kind": "crash", "error": "simulated"})
        assert failed["accepted"]
        # retry_backoff 0 -> requeued immediately, attempts respected
        pulled = _pull(gw, "n")
        assert [j["job_id"] for j in pulled["jobs"]] == [job_id]
        start = gw.handle_request(
            {"op": "work-start", "node": "n", "job_id": job_id})
        assert start["granted"] and start["attempts"] == 2
        gw.handle_request(
            {"op": "work-done", "node": "n", "job_id": job_id,
             "result": {"recovered": True}})
        status = gw.handle_request({"op": "status",
                                    "job_id": job_id})
        assert status["state"] == "done"
        assert gw.metrics.to_json()[
            "repro_jobs_retried_total"] == 1

    def test_crash_retries_exhausted_fails(self):
        gw = _gateway(max_retries=0)
        job_id = self._leased_running(gw, value="doomed")
        gw.handle_request(
            {"op": "work-fail", "node": "n", "job_id": job_id,
             "kind": "crash", "error": "boom"})
        status = gw.handle_request({"op": "status",
                                    "job_id": job_id})
        assert status["state"] == "failed"
        assert "retries exhausted" in status["error"]

    def test_error_kind_is_not_retried(self):
        gw = _gateway(max_retries=5)
        job_id = self._leased_running(gw, value="det")
        gw.handle_request(
            {"op": "work-fail", "node": "n", "job_id": job_id,
             "kind": "error", "error": "deterministic failure"})
        status = gw.handle_request({"op": "status",
                                    "job_id": job_id})
        assert status["state"] == "failed"
        assert gw.metrics.to_json()["repro_jobs_retried_total"] == 0

    def test_timeout_kind(self):
        gw = _gateway()
        job_id = self._leased_running(gw, value="slow")
        gw.handle_request(
            {"op": "work-fail", "node": "n", "job_id": job_id,
             "kind": "timeout"})
        status = gw.handle_request({"op": "status",
                                    "job_id": job_id})
        assert status["state"] == "timeout"

    def test_stale_report_is_ignored(self):
        gw = _gateway()
        submitted = _submit(gw, _probe(value="stale"))
        job_id = submitted["job_id"]
        # "other" never pulled or started this job
        done = gw.handle_request(
            {"op": "work-done", "node": "other", "job_id": job_id,
             "result": {"forged": True}})
        assert done["accepted"] is False
        status = gw.handle_request({"op": "status",
                                    "job_id": job_id})
        assert status["state"] == "queued"


class TestHeartbeat:
    def test_metrics_delta_merged_exactly_once(self, isolated_registry):
        gw = _gateway()
        delta = {"test_cluster_unique_total": {
            "kind": "counter", "help": "", "values": [[[], 5]]}}
        first = gw.handle_request(
            {"op": "heartbeat", "node": "w0", "seq": 1,
             "metrics": delta, "info": {"pid": 123}})
        assert first["merged"] is True and first["seq"] == 1
        # the worker never saw the ack and resends the same pair
        replay = gw.handle_request(
            {"op": "heartbeat", "node": "w0", "seq": 1,
             "metrics": delta})
        assert replay["merged"] is False
        counter = isolated_registry.counter(
            "test_cluster_unique_total")
        assert counter.total() == 5
        # a new sequence merges again
        second = gw.handle_request(
            {"op": "heartbeat", "node": "w0", "seq": 2,
             "metrics": delta})
        assert second["merged"] is True
        assert counter.total() == 10

    def test_health_reports_cluster_topology(self):
        gw = _gateway()
        gw.handle_request({"op": "heartbeat", "node": "w0",
                           "seq": 1, "metrics": {},
                           "info": {"pid": 42}})
        health = gw.handle_request({"op": "health"})
        assert health["tier"] == "cluster"
        cluster = health["cluster"]
        assert cluster["ring"]["shards"] == ["local"]
        assert cluster["shards"]["local"]["alive"] is True
        w0 = cluster["worker_nodes"]["w0"]
        assert w0["alive"] and w0["info"] == {"pid": 42}
        assert cluster["workers_alive"] == 1


class TestDeadNodeSweep:
    def test_unstarted_leases_requeue_running_jobs_retry(self):
        gw = _gateway(heartbeat_timeout=0.1, max_retries=3)
        for i in range(2):
            _submit(gw, _probe(value=f"sweep-{i}"))
        pulled = _pull(gw, "doomed", max_jobs=2)
        ids = [j["job_id"] for j in pulled["jobs"]]
        started = gw.handle_request(
            {"op": "work-start", "node": "doomed", "job_id": ids[0]})
        assert started["granted"]

        gw.ledger.nodes["doomed"].last_seen -= 1.0  # silence the node
        gw._sweep_dead_nodes()
        assert "doomed" not in gw.ledger.nodes
        assert gw.metrics.to_json()[
            "repro_cluster_dead_nodes_total"] == 1
        # the running job took the crash-retry path, the unstarted
        # one went straight back in the queue: both are claimable
        pulled = _pull(gw, "successor", max_jobs=2)
        assert sorted(j["job_id"] for j in pulled["jobs"]) \
            == sorted(ids)
        assert gw.metrics.to_json()["repro_jobs_retried_total"] == 1
        # late report from the dead node is a stale lease
        late = gw.handle_request(
            {"op": "work-done", "node": "doomed", "job_id": ids[0],
             "result": {"zombie": True}})
        assert late["accepted"] is False

    def test_silent_idle_node_is_forgotten(self):
        gw = _gateway(heartbeat_timeout=0.1)
        gw.handle_request({"op": "heartbeat", "node": "idle",
                           "seq": 1, "metrics": {}})
        gw.ledger.nodes["idle"].last_seen -= 1.0
        gw._sweep_dead_nodes()
        assert "idle" not in gw.ledger.nodes
        assert gw.metrics.to_json()[
            "repro_cluster_dead_nodes_total"] == 0


class TestConcurrentFleet:
    def test_racing_threads_run_every_job_exactly_once(self):
        """Submitters, pulling workers and the sweeper race on one
        gateway's ledger with a tiny switch interval: every job finishes
        done, one accepted report each, and only admitted jobs ran."""
        gw = _gateway(queue_capacity=1024, heartbeat_timeout=60.0)
        accepted = collections.Counter()
        submitted = []
        done_submitting = threading.Event()
        lock = threading.Lock()

        def submitter(k):
            for i in range(40):
                value = f"race-{(k * 40 + i) % 90}"
                response = _submit(gw, _probe(value=value))
                assert response["ok"], response
                with lock:
                    submitted.append(response["job_id"])

        def worker(name):
            while not (done_submitting.is_set()
                       and not gw.pending_jobs()):
                for job in _pull(gw, name, wait=0.02, max_jobs=2)["jobs"]:
                    start = gw.handle_request({"op": "work-start",
                                               "node": name,
                                               "job_id": job["job_id"]})
                    if not start["granted"]:
                        continue
                    report = gw.handle_request(
                        {"op": "work-done", "node": name,
                         "job_id": job["job_id"],
                         "result": {"echo": job["payload"]["value"]}})
                    if report["accepted"]:
                        with lock:
                            accepted[job["job_id"]] += 1

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker, args=(f"w{i}",))
                       for i in range(6)]
            submitters = [threading.Thread(target=submitter, args=(k,))
                          for k in range(4)]
            for t in workers + submitters:
                t.start()
            for t in submitters:
                t.join(timeout=30)
            done_submitting.set()
            for _ in range(20):
                gw._sweep_dead_nodes()
            for t in workers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in workers + submitters)
        assert len(submitted) == 160
        jobs = {job_id: gw.ledger.jobs[job_id] for job_id in submitted}
        assert all(job.state == JobState.DONE for job in jobs.values())
        ran = {job_id for job_id, job in jobs.items() if not job.cached}
        assert set(accepted) == ran
        assert all(n == 1 for n in accepted.values())
        metrics = gw.metrics.to_json()
        assert metrics["repro_jobs_submitted_total"] == len(ran)
        assert metrics["repro_jobs_running"] == 0


@pytest.fixture()
def make_gateway():
    gateways = []

    def factory(**kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("jobs", 2)
        kwargs.setdefault("inline", True)
        kwargs.setdefault("retry_backoff", 0.01)
        gateway = ParallelizationServer(tier="cluster", **kwargs)
        gateway.start()
        gateways.append(gateway)
        return gateway

    yield factory
    for gateway in gateways:
        gateway.stop()


class TestEndToEnd:
    """Started gateway + embedded local workers + the sync client."""

    def test_submit_executes_and_caches(self, make_gateway):
        gateway = make_gateway()
        client = ServiceClient(*gateway.address)
        first = client.submit(_probe(value="e2e"), wait=True,
                              wait_timeout=10)
        assert first["state"] == "done"
        assert first["result"] == {"echo": "e2e"}
        assert not first["cached"]
        second = client.submit(_probe(value="e2e"), wait=True,
                               wait_timeout=10)
        assert second["state"] == "done" and second["cached"]

    def test_crash_once_is_retried_by_the_fleet_path(self, make_gateway,
                                                     tmp_path):
        gateway = make_gateway(jobs=1)
        client = ServiceClient(*gateway.address)
        marker = tmp_path / "crash.marker"
        response = client.submit(_probe("crash-once", marker=str(marker)),
                                 wait=True, wait_timeout=15,
                                 max_retries=2)
        assert response["state"] == "done"
        assert response["result"] == {"recovered": True}
        assert response["attempts"] == 2
        metrics = client.metrics()["metrics"]
        assert metrics["repro_jobs_retried_total"] == 1

    def test_drain_finishes_accepted_jobs(self, make_gateway):
        """`shutdown drain` loses no accepted job."""
        gateway = make_gateway(jobs=2)
        client = ServiceClient(*gateway.address)
        accepted = [client.submit(_probe("sleep", seconds=0.3,
                                         tag=f"drain-{i}"), wait=False)
                    for i in range(4)]
        response = client.shutdown(drain=True, drain_timeout=10)
        assert response["ok"] and response["draining"]
        assert gateway.wait(timeout=15)
        for submitted in accepted:
            job = gateway.ledger.jobs[submitted["job_id"]]
            assert job.state == JobState.DONE, \
                f"job {job.id} lost in drain: {job.state}"

    def test_draining_rejects_new_submits(self, make_gateway):
        gateway = make_gateway(jobs=1)
        client = ServiceClient(*gateway.address)
        client.submit(_probe("sleep", seconds=0.5, tag="inflight"),
                      wait=False)
        client.shutdown(drain=True, drain_timeout=10)
        deadline = time.monotonic() + 5
        rejected = False
        while time.monotonic() < deadline and not rejected:
            try:
                client.submit(_probe(value="late-arrival"), wait=False)
            except ServiceError as exc:
                assert exc.code in ("backpressure", "unreachable")
                rejected = True
        assert rejected
        assert gateway.wait(timeout=15)

    def test_uptime_and_metrics_export(self, make_gateway):
        gateway = make_gateway()
        client = ServiceClient(*gateway.address)
        client.submit(_probe(value="m"), wait=True, wait_timeout=10)
        metrics = client.metrics()["metrics"]
        assert metrics["repro_jobs_completed_total"] == \
            {'{state="done"}': 1}
        assert metrics["repro_job_latency_seconds"]["count"] == 1
        # uptime is refreshed on every metrics request
        assert metrics["repro_uptime_seconds"] > 0
        # cluster counters are present in the export even when zero
        # (embedded workers lease via ledger.claim, not the pull op)
        assert "repro_cluster_pulls_total" in metrics
        assert "repro_cluster_steals_total" in metrics


class TestRegistryMergePath:
    def test_local_worker_merges_pipeline_metrics(self, make_gateway,
                                                  isolated_registry):
        # a benchmark job's pipeline observations (made in the worker)
        # surface in the gateway's merged metrics export
        gateway = make_gateway(jobs=1)
        client = ServiceClient(*gateway.address)
        response = client.submit_benchmark("adm", config="none",
                                           wait=True, wait_timeout=60)
        assert response["state"] == "done"
        metrics = client.metrics()["metrics"]
        assert metrics["repro_loops_parallel_total"] > 0


def test_obs_metrics_module_is_shared():
    # the gateway merges worker deltas into the same default registry
    # the single-node daemon uses: both go through the one ledger, which
    # reads the process registry from repro.obs.metrics
    from repro.service import ledger
    assert ledger.obs_metrics.get_registry() is obs_metrics.get_registry()
