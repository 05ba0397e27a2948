"""Job model and bounded-queue semantics."""

import time

import pytest

from repro.service.jobs import (FINAL_STATES, Job, JobState,
                                QueueFullError, payload_digest)
from repro.service.ledger import JobLedger


def _job(**kwargs):
    payload = kwargs.pop("payload", {"kind": "probe", "probe": "echo"})
    return Job(digest=payload_digest(payload), payload=payload, **kwargs)


class TestPayloadDigest:
    def test_deterministic(self):
        p = {"kind": "benchmark", "benchmark": "adm", "config": "none"}
        assert payload_digest(p) == payload_digest(dict(p))

    def test_key_order_irrelevant(self):
        a = {"kind": "benchmark", "benchmark": "adm"}
        b = {"benchmark": "adm", "kind": "benchmark"}
        assert payload_digest(a) == payload_digest(b)

    def test_content_sensitive(self):
        a = {"kind": "benchmark", "benchmark": "adm", "config": "none"}
        b = dict(a, config="annotation")
        assert payload_digest(a) != payload_digest(b)


class TestJob:
    def test_initial_state(self):
        job = _job()
        assert job.state == JobState.QUEUED
        assert job.state not in FINAL_STATES
        assert not job.finished.is_set()

    def test_finish_sets_event_and_latency(self):
        job = _job()
        job.finish(JobState.DONE, result={"x": 1})
        assert job.finished.is_set()
        assert job.state in FINAL_STATES
        assert job.latency() is not None and job.latency() >= 0

    def test_no_deadline_never_expires(self):
        assert _job().remaining() is None
        assert not _job().expired()

    def test_deadline_expiry(self):
        job = _job(deadline=100.0)
        assert not job.expired()
        assert 99 < job.remaining() <= 100
        job.submitted_at -= 200.0
        assert job.expired()

    def test_ids_unique(self):
        assert _job().id != _job().id

    def test_snapshot_is_json_safe(self):
        import json
        snap = _job(deadline=5.0).snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["state"] == "queued"


class TestJobQueue:
    """The bounded FIFO is the ledger's pending deque (the former
    ``JobQueue`` class is gone); same guarantees, asked of the ledger."""

    @staticmethod
    def _ledger(**kwargs):
        kwargs.setdefault("retry_backoff", 0.0)
        return JobLedger("single-node", "daemon", "test-run",
                         clock=lambda: 0.0, wall=lambda: 0.0, **kwargs)

    @staticmethod
    def _admit(ledger, tag):
        request = {"payload": {"kind": "probe", "probe": "echo",
                               "value": tag}}
        digest, trace = ledger.open_submit(request)
        return ledger.admit(request, digest, None, trace)[0]

    def test_fifo_order(self):
        ledger = self._ledger(capacity=10)
        jobs = [self._admit(ledger, i) for i in range(3)]
        node = ledger.touch_node("n", local=True)
        assert [j.id for j in ledger.claim(node, 3)] == \
            [j.id for j in jobs]

    def test_backpressure_rejects_with_reason(self):
        ledger = self._ledger(capacity=2)
        self._admit(ledger, "a")
        self._admit(ledger, "b")
        with pytest.raises(QueueFullError, match="full"):
            self._admit(ledger, "c")
        assert len(ledger.pending) == 2  # the rejected job was not admitted
        assert len(ledger.jobs) == 2

    def test_force_put_bypasses_capacity(self):
        ledger = self._ledger(capacity=1)
        first = self._admit(ledger, "a")
        node = ledger.touch_node("n", local=True)
        ledger.claim(node)
        ledger.start(node, first.id)
        self._admit(ledger, "b")           # the queue is full again
        ledger.fail("n", first.id, "crash", "boom")  # a crash retry re-enters
        assert len(ledger.pending) == 2

    def test_get_timeout_returns_none(self):
        ledger = self._ledger(capacity=1)
        node = ledger.touch_node("n", local=True)
        assert ledger.claim(node) == []    # never blocks: waiting is the shell's

    def test_close_wakes_blocked_consumer(self):
        from repro.service.server import ParallelizationServer
        server = ParallelizationServer(port=0, jobs=1, inline=True)
        server.start()
        time.sleep(0.05)                   # the dispatcher is idle-waiting
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 2.0
        assert not any(t.is_alive() for t in server._threads)

    def test_closed_queue_rejects_put(self):
        ledger = self._ledger(capacity=4)
        ledger.stopping = True
        with pytest.raises(QueueFullError, match="shutting down"):
            self._admit(ledger, "late")

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            self._ledger(capacity=0)
