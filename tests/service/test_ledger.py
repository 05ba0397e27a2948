"""The sans-IO job ledger: every transition under an injected clock.

No test here opens a socket, starts a thread or sleeps (an autouse
fixture makes any attempt fail), and the ledger's source is checked to
stay that way.  The unit cases pin each transition the daemon and the
gateway used to implement separately; the seeded property test drives
random op sequences with duplicated and reordered worker reports and
checks the control-plane invariants after every step.
"""

import ast
import collections
import random
import socket
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.distributed import TraceContext
from repro.service import ledger as ledger_module
from repro.service.jobs import (FINAL_STATES, JobState, QueueFullError,
                                payload_digest)
from repro.service.ledger import KEEP_FINISHED, JobLedger


class FakeClock:
    """Monotonic and wall time in one hand-advanced counter."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture(autouse=True)
def no_io(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the ledger tests must not do I/O or sleep")
    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(time, "sleep", refuse)
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    yield
    obs_metrics.set_registry(previous)


def make_ledger(clock=None, **kwargs):
    clock = clock or FakeClock()
    kwargs.setdefault("retry_backoff", 0.5)
    return JobLedger("single-node", "daemon", "test-run", clock=clock,
                     wall=clock, **kwargs), clock


def probe(value="x"):
    return {"kind": "probe", "probe": "echo", "value": value}


def admit(ledger, payload=None, cached=None, **request):
    request["payload"] = payload or probe()
    digest, trace = ledger.open_submit(request)
    return ledger.admit(request, digest, cached, trace)


def running(ledger, node="n", **request):
    """Admit a job and take it to RUNNING on ``node``."""
    job, _ = admit(ledger, **request)
    handle = ledger.touch_node(node)
    assert [j.id for j in ledger.claim(handle)] == [job.id]
    granted, reason = ledger.start(handle, job.id)
    assert granted is job, reason
    return job


def counter(ledger, name):
    return ledger.metrics.to_json()[name]


def trace_ctx():
    root = TraceContext()
    return root, {"traceparent": root.to_traceparent()}


# ---------------------------------------------------------------------------
# the module stays sans-IO
# ---------------------------------------------------------------------------

def test_ledger_source_is_sans_io():
    with open(ledger_module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add((node.module or "").split(".")[0])
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "time":
            pytest.fail(f"ledger.py line {node.lineno}: time.{node.attr}")
    forbidden = {"socket", "threading", "asyncio", "selectors", "time"}
    assert not imported & forbidden, imported & forbidden


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_queue_then_cache_answer(self):
        ledger, _ = make_ledger()
        job, deduped = admit(ledger)
        assert job.state == JobState.QUEUED and not deduped
        assert list(ledger.pending) == [job.id]
        hit, deduped = admit(ledger, probe("other"),
                             cached={"echo": "other"})
        assert hit.state == JobState.DONE and hit.cached and not deduped
        assert hit.result == {"echo": "other"}
        assert counter(ledger, "repro_cache_hits_total") == 1
        assert counter(ledger, "repro_cache_misses_total") == 1
        assert counter(ledger, "repro_jobs_submitted_total") == 1
        # a cache answer ran nothing: no latency observation
        assert counter(ledger, "repro_job_latency_seconds")["count"] == 0

    def test_capacity_backpressure(self):
        ledger, _ = make_ledger(capacity=2)
        admit(ledger, probe(1))
        admit(ledger, probe(2))
        with pytest.raises(QueueFullError, match="queue is full"):
            admit(ledger, probe(3), **{"trace_ctx": trace_ctx()[1]})
        assert len(ledger.jobs) == 2 and not ledger.traced
        assert counter(ledger, "repro_jobs_rejected_total") == 1

    def test_draining_and_stopping_reject(self):
        ledger, _ = make_ledger()
        live, _ = admit(ledger)
        ledger.draining = True
        with pytest.raises(QueueFullError, match="draining"):
            admit(ledger)  # even a duplicate of live work
        ledger.stopping = True
        with pytest.raises(QueueFullError, match="shutting down"):
            admit(ledger, probe("new"))
        assert counter(ledger, "repro_jobs_rejected_total") == 2
        assert live.state == JobState.QUEUED

    def test_malformed_requests_raise(self):
        ledger, _ = make_ledger()
        for request, match in (
                ({}, "payload"),
                ({"payload": {"kind": "nonsense"}}, "payload kind"),
                ({"payload": probe(), "ctx": {"a": {"b": 1}}}, "ctx"),
                ({"payload": probe(),
                  "trace_ctx": {"traceparent": "zz"}}, "trace_ctx")):
            with pytest.raises(ValueError, match=match):
                ledger.open_submit(request)

    def test_malformed_numbers_never_reach_the_job_table(self):
        """A ``deadline`` of ``"soon"`` used to be admitted, and the next
        ``claim`` raised ``TypeError`` in ``Job.expired`` — killing the
        executor that called it.  Bad numbers are refused at the door."""
        ledger, _ = make_ledger()
        for key, bad in (("deadline", "soon"), ("deadline", 0),
                         ("deadline", -1.0), ("deadline", float("nan")),
                         ("deadline", float("inf")), ("deadline", True),
                         ("wait_timeout", "later"), ("wait_timeout", 0),
                         ("max_retries", -1), ("max_retries", 1.5),
                         ("max_retries", "2"), ("max_retries", False)):
            with pytest.raises(ValueError, match=key):
                ledger.open_submit({"payload": probe(), key: bad})
        assert not ledger.jobs and not ledger.pending
        job, _ = admit(ledger, deadline=2, wait_timeout=0.5, max_retries=0)
        assert (job.deadline, job.max_retries) == (2, 0)
        assert ledger.claim(ledger.touch_node("n")) == [job]

    def test_dedup_flag_comes_from_the_admitting_section(self):
        """The daemon used to read the digest index, drop its lock, and
        re-take it to admit: a same-digest job admitted in between was
        joined but reported ``deduped: false``.  ``admit`` decides and
        reports in one step, whatever the caller saw before."""
        ledger, _ = make_ledger()
        request = {"payload": probe("race")}
        digest, _trace = ledger.open_submit(request)
        assert ledger.live_job(digest) is None   # A looks: nothing live
        winner, deduped = admit(ledger, probe("race"))  # B gets in first
        assert not deduped
        job, deduped = ledger.admit(request, digest, None)  # A admits
        assert job is winner and deduped
        assert counter(ledger, "repro_jobs_deduped_total") == 1
        assert counter(ledger, "repro_jobs_submitted_total") == 1

    def test_trace_ctx_and_ctx_never_reach_the_digest(self):
        ledger, _ = make_ledger()
        plain = {"payload": probe("same")}
        traced = {"payload": probe("same"), "trace_ctx": trace_ctx()[1],
                  "ctx": {"run_id": "r1"}}
        assert ledger.open_submit(plain)[0] \
            == ledger.open_submit(traced)[0] \
            == payload_digest(probe("same"))
        first, _ = admit(ledger, probe("same"))
        second, deduped = admit(ledger, probe("same"),
                                trace_ctx=trace_ctx()[1])
        assert second is first and deduped

    def test_defaults_and_overrides(self):
        ledger, _ = make_ledger(default_deadline=9.0, max_retries=4)
        job, _ = admit(ledger, probe(1))
        assert (job.deadline, job.max_retries) == (9.0, 4)
        job, _ = admit(ledger, probe(2), deadline=1.0, max_retries=0)
        assert (job.deadline, job.max_retries) == (1.0, 0)


# ---------------------------------------------------------------------------
# leases
# ---------------------------------------------------------------------------

class TestLeases:
    def test_done_roundtrip(self):
        ledger, clock = make_ledger()
        finished = []
        ledger.on_finish = finished.append
        job = running(ledger)
        assert job.attempts == 1
        clock.advance(2.0)
        assert ledger.done("n", job.id, {"echo": "x"})
        assert job.state == JobState.DONE and job.latency() == 2.0
        assert finished == [job]
        assert ledger.nodes["n"].done == 1
        assert counter(ledger, "repro_jobs_running") == 0
        assert ledger.unfinished() == 0

    def test_deadline_expired_while_queued(self):
        ledger, clock = make_ledger()
        late, _ = admit(ledger, probe("late"), deadline=1.0)
        ok, _ = admit(ledger, probe("ok"))
        clock.advance(1.5)
        claimed = ledger.claim(ledger.touch_node("n"), 5)
        assert [j.id for j in claimed] == [ok.id]
        assert late.state == JobState.TIMEOUT
        assert "queued" in late.error

    def test_deadline_expired_between_claim_and_start(self):
        ledger, clock = make_ledger()
        job, _ = admit(ledger, deadline=1.0)
        node = ledger.touch_node("n")
        ledger.claim(node)
        clock.advance(2.0)
        assert ledger.start(node, job.id) == (None, "job timed out")
        assert job.state == JobState.TIMEOUT and not node.lease_at

    def test_cancel_drops_an_unstarted_lease(self):
        ledger, _ = make_ledger()
        job, _ = admit(ledger)
        node = ledger.touch_node("n")
        ledger.claim(node)
        assert ledger.cancel(job.id) == (True, "canceled")
        assert not node.unstarted and not node.lease_at
        granted, reason = ledger.start(node, job.id)
        assert granted is None and "lease moved" in reason
        assert ledger.cancel(job.id) == (False, "job is canceled, "
                                                "not queued")

    def test_cancel_refuses_running_and_unknown(self):
        ledger, _ = make_ledger()
        job = running(ledger)
        ok, reason = ledger.cancel(job.id)
        assert not ok and "running" in reason
        assert ledger.cancel("job-nope")[0] is False

    def test_steal_refuses_the_victims_later_start(self):
        ledger, _ = make_ledger()
        for i in range(3):
            admit(ledger, probe(i))
        victim, thief = ledger.touch_node("a"), ledger.touch_node("b")
        assert len(ledger.claim(victim, 3)) == 3
        stolen = ledger.steal(thief)
        assert stolen is not None and stolen.id not in victim.unstarted
        refused, reason = ledger.start(victim, stolen.id)
        assert refused is None and "lease moved" in reason
        granted, _ = ledger.start(thief, stolen.id)
        assert granted is stolen and stolen.attempts == 1
        # a third idle node takes the next one; counted once per steal
        assert ledger.steal(ledger.touch_node("c")) is not None
        assert ledger.metrics.to_json()["repro_cluster_steals_total"] == 2

    def test_nothing_to_steal(self):
        ledger, _ = make_ledger()
        assert ledger.steal(ledger.touch_node("bored")) is None

    def test_reports_from_a_node_without_the_lease_are_stale(self):
        ledger, _ = make_ledger()
        job = running(ledger, node="owner")
        assert not ledger.done("other", job.id, {"forged": True})
        assert ledger.fail("other", job.id, "crash") == (False, None)
        assert job.state == JobState.RUNNING
        assert ledger.done("owner", job.id, {"echo": 1})
        # the duplicate of an accepted report is stale too
        assert not ledger.done("owner", job.id, {"echo": 1})
        assert counter(ledger, "repro_jobs_completed_total") \
            == {'{state="done"}': 1}

    def test_fail_kinds(self):
        ledger, _ = make_ledger(max_retries=5)
        slow = running(ledger, payload=probe("slow"))
        assert ledger.fail("n", slow.id, "timeout") == (True, None)
        assert slow.state == JobState.TIMEOUT and "running" in slow.error
        det = running(ledger, payload=probe("det"))
        assert ledger.fail("n", det.id, "error", "ValueError: no") \
            == (True, None)
        assert det.state == JobState.FAILED and det.attempts == 1
        assert counter(ledger, "repro_jobs_retried_total") == 0
        assert ledger.nodes["n"].failed == 2


class TestCrashRetry:
    def test_backoff_doubles_and_is_returned_not_scheduled(self):
        ledger, clock = make_ledger(max_retries=3, retry_backoff=0.5)
        job = running(ledger)
        for attempt, expected in ((1, 0.5), (2, 1.0), (3, 2.0)):
            assert job.attempts == attempt
            assert ledger.fail("n", job.id, "crash", "boom") \
                == (True, expected)
            # queued again, but not claimable until the shell requeues
            assert job.state == JobState.QUEUED and not ledger.pending
            clock.advance(expected)
            ledger.requeue(job.id)
            node = ledger.touch_node("n")
            assert ledger.claim(node) == [job]
            assert ledger.start(node, job.id)[0] is job
        assert counter(ledger, "repro_jobs_retried_total") == 3

    def test_exhaustion_fails_the_job(self):
        ledger, _ = make_ledger(max_retries=1, retry_backoff=0.0)
        job = running(ledger)
        assert ledger.fail("n", job.id, "crash", "boom") == (True, None)
        assert list(ledger.pending) == [job.id]  # zero delay: requeued
        node = ledger.touch_node("n")
        ledger.claim(node)
        ledger.start(node, job.id)
        assert ledger.fail("n", job.id, "crash", "boom") == (True, None)
        assert job.state == JobState.FAILED
        assert "retries exhausted" in job.error and job.attempts == 2

    def test_delay_is_capped_by_the_remaining_deadline(self):
        ledger, clock = make_ledger(retry_backoff=10.0)
        job = running(ledger, deadline=3.0)
        clock.advance(1.0)
        assert ledger.fail("n", job.id, "crash") == (True, 2.0)

    def test_requeue_goes_to_the_front(self):
        ledger, _ = make_ledger()
        crashed = running(ledger, payload=probe("crashed"))
        waiting, _ = admit(ledger, probe("waiting"))
        ledger.fail("n", crashed.id, "crash")
        ledger.requeue(crashed.id)
        assert list(ledger.pending) == [crashed.id, waiting.id]

    def test_requeue_after_cancel_or_stop(self):
        ledger, _ = make_ledger()
        canceled = running(ledger, payload=probe("c"))
        ledger.fail("n", canceled.id, "crash")
        assert ledger.cancel(canceled.id)[0]
        ledger.requeue(canceled.id)
        assert not ledger.pending and canceled.state == JobState.CANCELED
        stopped = running(ledger, payload=probe("s"))
        ledger.fail("n", stopped.id, "crash")
        ledger.stopping = True
        ledger.requeue(stopped.id)
        assert stopped.state == JobState.FAILED
        assert "stopped during crash retry" in stopped.error


class TestSweepAndHeartbeat:
    def test_dead_node_leases_requeue_and_late_reports_are_stale(self):
        ledger, clock = make_ledger(heartbeat_timeout=5.0, max_retries=3)
        started = running(ledger, node="doomed", payload=probe("run"))
        leased, _ = admit(ledger, probe("leased"))
        ledger.claim(ledger.touch_node("doomed"))
        clock.advance(4.0)
        assert ledger.sweep() == [] and "doomed" in ledger.nodes
        clock.advance(2.0)
        assert ledger.sweep() == [(started.id, 0.5)]
        assert "doomed" not in ledger.nodes
        assert list(ledger.pending) == [leased.id]
        assert started.state == JobState.QUEUED
        assert ledger.metrics.to_json()[
            "repro_cluster_dead_nodes_total"] == 1
        kinds = [e["kind"] for e in ledger.telemetry.events_since(0)]
        assert kinds.count("node-dead") == 1
        # the zombie's reports change nothing
        assert not ledger.done("doomed", started.id, {"zombie": True})
        assert ledger.fail("doomed", started.id, "crash") == (False, None)
        assert ledger.start(ledger.touch_node("doomed"),
                            leased.id)[0] is None
        assert started.state == JobState.QUEUED

    def test_local_and_idle_nodes(self):
        ledger, clock = make_ledger(heartbeat_timeout=1.0)
        job = running(ledger, node="local-0")
        ledger.nodes["local-0"].local = True
        ledger.touch_node("idle")
        clock.advance(10.0)
        assert ledger.sweep() == []
        assert set(ledger.nodes) == {"local-0"}   # idle one forgotten
        assert job.state == JobState.RUNNING
        assert "repro_cluster_dead_nodes_total" \
            not in ledger.metrics.to_json()

    def test_heartbeat_merges_each_sequence_once(self):
        ledger, _ = make_ledger()
        delta = {"test_ledger_unique_total": {
            "kind": "counter", "help": "", "values": [[[], 5]]}}
        beat = {"boot": "b1", "seq": 1, "metrics": delta, "wall": 990.0,
                "info": {"pid": 7}}
        assert ledger.heartbeat("w0", beat) is True
        assert ledger.heartbeat("w0", beat) is False     # replay
        total = obs_metrics.get_registry().counter(
            "test_ledger_unique_total").total
        assert total() == 5
        assert ledger.heartbeat("w0", dict(beat, seq=2)) is True
        assert total() == 10
        assert ledger.nodes["w0"].info == {"pid": 7}
        assert ledger.clock_model.to_dict()["w0"]["offset"] == 10.0

    def test_boot_id_change_resets_seq(self):
        ledger, _ = make_ledger()
        ledger.heartbeat("w0", {"boot": "b1", "seq": 7, "metrics": {}})
        assert ledger.nodes["w0"].last_seq == 7
        # the restarted process counts from one again
        assert ledger.heartbeat("w0", {"boot": "b2", "seq": 1,
                                       "metrics": {}}) is True
        assert ledger.nodes["w0"].last_seq == 1
        kinds = [e["kind"] for e in ledger.telemetry.events_since(0)]
        assert kinds == ["node-join", "node-restart"]
        # a replay from the old incarnation's sequence space is dropped
        assert ledger.heartbeat("w0", {"boot": "b2", "seq": 1,
                                       "metrics": {}}) is False


# ---------------------------------------------------------------------------
# retention, spans, the op table
# ---------------------------------------------------------------------------

class TestRetention:
    def test_table_stays_bounded(self):
        ledger, _ = make_ledger()
        extra = 40
        first = None
        for i in range(KEEP_FINISHED + extra):
            traced = {"trace_ctx": trace_ctx()[1]} if i % 7 == 0 else {}
            if i % 2:
                job, _ = admit(ledger, probe(i), cached={"echo": i},
                               **traced)
            else:
                job = running(ledger, payload=probe(i), **traced)
                ledger.done("n", job.id, {"echo": i})
            first = first or job
        live, _ = admit(ledger, probe("still queued"))
        assert len(ledger.jobs) == KEEP_FINISHED + 1
        assert len(ledger.traced) <= len(ledger.jobs)
        assert set(ledger.traced) <= set(ledger.jobs)
        assert ledger.unfinished() == 1
        gone = ledger.op_status({"job_id": first.id})
        assert gone["ok"] is False and gone["code"] == "not-found"
        assert ledger.op_status({"job_id": live.id})["state"] == "queued"
        assert ledger.op_status({"job_id": job.id})["state"] == "done"
        # a holder of the evicted Job object still has its result
        assert first.result == {"echo": 0}


class TestSpans:
    def test_traced_job_records_queue_wait_execute_and_job(self):
        ledger, clock = make_ledger()
        root, ctx = trace_ctx()
        job, _ = admit(ledger, trace_ctx=ctx)
        carried = TraceContext.from_dict(job.trace_ctx)
        assert carried.trace_id == root.trace_id
        assert carried.span_id != root.span_id
        clock.advance(1.0)
        node = ledger.touch_node("local-0", local=True)
        ledger.claim(node)
        ledger.start(node, job.id)
        t0 = clock()
        clock.advance(2.0)
        assert ledger.settle("local-0", job, "done", {"echo": 1},
                             t0, 2.0) is None
        spans = {s["name"]: s for s in
                 ledger.op_trace_export({})["spans"]}
        assert set(spans) == {"queue-wait", "execute", "job"}
        assert spans["job"]["cat"] == "daemon"
        assert spans["job"]["parent_id"] == root.span_id
        assert spans["job"]["dur"] == 3.0
        assert spans["queue-wait"]["dur"] == 1.0
        assert spans["execute"]["cat"] == "worker"
        assert spans["execute"]["args"]["outcome"] == "done"
        for name in ("queue-wait", "execute"):
            assert spans[name]["parent_id"] == spans["job"]["span_id"]

    def test_settle_returns_the_crash_delay(self):
        ledger, clock = make_ledger(retry_backoff=0.25)
        job = running(ledger, node="local-0")
        assert ledger.settle("local-0", job, "crash", "boom",
                             clock(), 0.0) == 0.25

    def test_trace_export_dedups_decisions_of_a_retried_job(self):
        ledger, _ = make_ledger(retry_backoff=0.0)
        root, ctx = trace_ctx()
        job = running(ledger, trace_ctx=ctx)
        ledger.fail("n", job.id, "crash")
        node = ledger.touch_node("n")
        ledger.claim(node)
        ledger.start(node, job.id)
        decision = {"unit": "P", "var": "I", "parallel": True,
                    "benchmark": "b", "config": "none", "line": 3}
        ledger.done("n", job.id, {"trace": {
            "decisions": [decision, dict(decision)],
            "site_decisions": []}})
        export = ledger.op_trace_export({"trace_id": root.trace_id})
        assert len(export["decisions"]) == 1
        assert export["decisions"][0]["job_id"] == job.id
        assert export["decisions"][0]["trace_id"] == root.trace_id
        assert ledger.op_trace_export({"trace_id": "0" * 32})[
            "decisions"] == []
        bad = ledger.op_trace_export({"trace_id": 7})
        assert bad["code"] == "bad-request"


class TestOpTable:
    def test_unknown_op_message_is_derived_from_the_table(self):
        ledger, _ = make_ledger()
        ledger.ops["frobnicate-not"] = lambda request: {"ok": True}
        response = ledger.dispatch({"op": "frobnicate"})
        assert response["code"] == "bad-op"
        for name in ledger.ops:
            assert name in response["error"]
        assert ledger.dispatch({"op": ["status"]})["code"] == "bad-op"
        assert counter(ledger, "repro_requests_total") \
            == {'{op="unknown"}': 2}

    def test_status_result_cancel(self):
        ledger, _ = make_ledger()
        job, _ = admit(ledger)
        status = ledger.dispatch({"op": "status", "job_id": job.id})
        assert status["ok"] and status["state"] == "queued"
        pending = ledger.dispatch({"op": "result", "job_id": job.id})
        assert pending["code"] == "not-ready"
        canceled = ledger.dispatch({"op": "cancel", "job_id": job.id})
        assert canceled["canceled"] is True
        assert canceled["state"] == "canceled"
        after = ledger.dispatch({"op": "result", "job_id": job.id})
        assert after["ok"] is False and after["code"] == "canceled"
        for op in ("status", "result", "cancel"):
            missing = ledger.dispatch({"op": op, "job_id": "job-nope"})
            assert missing["code"] == "not-found"
            assert ledger.dispatch({"op": op, "job_id": ["x"]})[
                "code"] == "not-found"

    def test_result_strips_trace_unless_asked(self):
        ledger, _ = make_ledger()
        job = running(ledger)
        ledger.done("n", job.id, {"echo": 1, "trace": {"events": [1]}})
        plain = ledger.dispatch({"op": "result", "job_id": job.id})
        assert plain["result"] == {"echo": 1}
        full = ledger.dispatch({"op": "result", "job_id": job.id,
                                "include_trace": True})
        assert full["result"]["trace"] == {"events": [1]}

    def test_health_metrics_telemetry_shutdown(self):
        ledger, clock = make_ledger(capacity=9)
        ledger.started_at = clock()
        admit(ledger)
        clock.advance(3.0)
        health = ledger.dispatch({"op": "health"})
        assert health == {"ok": True, "tier": "single-node",
                          "uptime": 3.0, "draining": False,
                          "queue_depth": 1, "queue_capacity": 9,
                          "jobs_by_state": {"queued": 1}}
        metrics = ledger.dispatch({"op": "metrics"})["metrics"]
        assert metrics["repro_uptime_seconds"] == 3.0
        assert metrics["repro_queue_depth"] == 1
        prom = ledger.dispatch({"op": "metrics", "format": "prometheus"})
        assert "# TYPE repro_jobs_submitted_total counter" in prom["text"]
        assert ledger.dispatch({"op": "metrics", "format": "xml"})[
            "code"] == "bad-request"
        frame = ledger.dispatch({"op": "telemetry"})
        assert frame["tier"] == "single-node"
        assert frame["run_id"] == "test-run"
        assert frame["snapshot"]["health"]["queue_depth"] == 1
        assert "ok" not in frame["snapshot"]["health"]
        stop = ledger.dispatch({"op": "shutdown", "drain": True,
                                "drain_timeout": 4})
        assert stop["_shutdown"] and stop["_drain"]
        assert stop["_drain_timeout"] == 4 and ledger.draining


# ---------------------------------------------------------------------------
# the seeded property test
# ---------------------------------------------------------------------------

def check_invariants(ledger, admitted, finishes):
    for job in admitted.values():
        expected = 1 if job.state in FINAL_STATES else 0
        assert finishes[job.id] == expected, (job.id, job.state)
    live = [j for j in ledger.jobs.values()
            if j.state not in FINAL_STATES]
    assert len({j.digest for j in live}) == len(live), \
        "two live jobs share a digest"
    for digest, job_id in ledger.by_digest.items():
        assert ledger.jobs[job_id].digest == digest
    holders = collections.Counter()
    for node in ledger.nodes.values():
        for job_id in node.running:
            holders[job_id] += 1
            assert ledger.jobs[job_id].state == JobState.RUNNING
    assert all(n == 1 for n in holders.values()), "a job runs twice"
    assert len(ledger.jobs) <= len(live) + KEEP_FINISHED
    assert ledger.unfinished() == len(live)
    assert set(ledger.traced) <= set(ledger.jobs)


@pytest.mark.parametrize("seed", range(12))
def test_random_sessions_finish_every_job_exactly_once(seed):
    rng = random.Random(seed)
    finishes = collections.Counter()

    def on_finish(job):
        finishes[job.id] += 1

    ledger, clock = make_ledger(capacity=6, max_retries=2,
                                retry_backoff=0.4, heartbeat_timeout=3.0,
                                on_finish=on_finish)
    admitted = {}
    reports = []    # (node, job id, outcome) not yet delivered
    timers = []     # (due, job id) retry delays owed to the ledger
    names = ["w0", "w1", "w2"]

    def owe(job_id, delay):
        if delay is not None:
            timers.append((clock() + delay, job_id))
            if rng.random() < 0.2:      # a duplicated timer
                timers.append((clock() + delay * 2, job_id))

    def deliver(report):
        name, job_id, outcome = report
        if outcome == "done":
            ledger.done(name, job_id, {"echo": job_id})
        else:
            owe(job_id, ledger.fail(name, job_id, outcome, "sim")[1])

    def fire_timers(everything=False):
        due = [t for t in timers if everything or t[0] <= clock()]
        for timer in due:
            timers.remove(timer)
            ledger.requeue(timer[1])

    def try_start(name, job_id):
        job, _reason = ledger.start(ledger.touch_node(name), job_id)
        if job is not None:
            outcome = rng.choice(["done", "done", "done", "crash",
                                  "crash", "error", "timeout"])
            reports.append((name, job_id, outcome))
            if rng.random() < 0.3:      # the report is sent twice
                reports.append((name, job_id, outcome))

    for _step in range(500):
        clock.advance(rng.random() * 0.25)
        action = rng.choice(["submit", "submit", "pull", "pull", "start",
                             "start", "report", "report", "cancel",
                             "beat", "sweep", "forged"])
        if action == "submit":
            request = {"payload": probe(rng.randrange(14))}
            if rng.random() < 0.3:
                request["trace_ctx"] = trace_ctx()[1]
            if rng.random() < 0.2:
                request["deadline"] = rng.choice([0.1, 1.0, 5.0])
            digest, trace = ledger.open_submit(request)
            assert digest == payload_digest(request["payload"])
            cached = {"echo": "hit"} if rng.random() < 0.1 else None
            try:
                job, _deduped = ledger.admit(request, digest, cached,
                                             trace)
            except QueueFullError:
                continue
            admitted[job.id] = job
        elif action == "pull":
            node = ledger.touch_node(rng.choice(names))
            if not ledger.claim(node, rng.randint(1, 3)):
                ledger.steal(node)
        elif action == "start":
            leases = [(n.name, job_id) for n in ledger.nodes.values()
                      for job_id in n.unstarted]
            if leases:
                try_start(*rng.choice(leases))
        elif action == "report" and reports:
            deliver(reports.pop(rng.randrange(len(reports))))
        elif action == "cancel" and admitted:
            ledger.cancel(rng.choice(list(admitted)))
        elif action == "beat":
            ledger.heartbeat(rng.choice(names),
                             {"boot": rng.choice(["b1", "b2"]),
                              "seq": rng.randint(1, 50), "metrics": {}})
        elif action == "sweep":
            for job_id, delay in ledger.sweep():
                owe(job_id, delay)
        elif action == "forged" and admitted:
            # a node that never held the lease reports on a random job
            deliver((rng.choice(names), rng.choice(list(admitted)),
                     rng.choice(["done", "crash"])))
            try_start(rng.choice(names), rng.choice(list(admitted)))
        fire_timers()
        check_invariants(ledger, admitted, finishes)

    # drain: no new work; deliver and fire everything, then let one
    # reliable node finish what is left
    for _round in range(200):
        if not ledger.unfinished():
            break
        clock.advance(1.0)
        rng.shuffle(reports)
        while reports:
            deliver(reports.pop())
        fire_timers(everything=True)
        for job_id, delay in ledger.sweep():
            owe(job_id, delay)
        node = ledger.touch_node("reliable")
        for job in ledger.claim(node, 100):
            if ledger.start(node, job.id)[0] is not None:
                ledger.done("reliable", job.id, {"echo": job.id})
        check_invariants(ledger, admitted, finishes)
    assert ledger.unfinished() == 0
    assert admitted, "the session admitted nothing"
    for job in admitted.values():
        assert job.state in FINAL_STATES
        assert finishes[job.id] == 1
