"""The parallelization daemon: a threaded shell around the job ledger.

Every decision about a job is the
:class:`~repro.service.ledger.JobLedger`'s (admission, dedup, leases,
crash retry, cancel — see its module docstring).
:class:`ParallelizationServer` supplies what the ledger leaves open: a
listening socket with a handler thread per connection
(:func:`repro.service.protocol.serve_threaded`); one
:class:`threading.Condition` that guards every ledger call and wakes
idle dispatchers; N dispatcher threads, each a local ledger node that
claims one lease at a time and runs it on the shared
:class:`~repro.experiments.executor.WorkerPool` (worker *processes*,
degrading to in-thread execution where pools are unavailable); the
:class:`~repro.service.cache.ResultCache`, looked up inside the
admission critical section; and a :class:`threading.Timer` per crash
retry delay.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.experiments.executor import WorkerPool, resolve_jobs
from repro.obs import logging as obs_logging
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.execution import run_leased
from repro.service.jobs import Job, QueueFullError
from repro.service.ledger import JobLedger, job_response

_log = obs_logging.get_logger("repro.service")


class ParallelizationServer(protocol.ThreadedServer):
    """Long-running batch parallelization daemon (see module docstring).

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.address`` after :meth:`start`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 jobs: Optional[int] = None, queue_capacity: int = 64,
                 cache_capacity: int = 128,
                 cache_dir: Optional[str] = None,
                 default_deadline: Optional[float] = None,
                 max_retries: int = 1, retry_backoff: float = 0.5,
                 drain_timeout: float = 30.0,
                 inline: Optional[bool] = None,
                 telemetry_dir: Optional[str] = None,
                 run_id: Optional[str] = None):
        super().__init__(host, port)
        self.workers = resolve_jobs(jobs)
        self.drain_timeout = drain_timeout
        self.cache = ResultCache(cache_capacity, directory=cache_dir)
        self.pool = WorkerPool(self.workers, inline=inline)

        self._cond = threading.Condition()   # guards every ledger call
        self.ledger = JobLedger(
            "single-node", "daemon", run_id or f"svc-{os.getpid()}",
            clock=time.monotonic, wall=time.time,
            capacity=queue_capacity, default_deadline=default_deadline,
            max_retries=max_retries, retry_backoff=retry_backoff,
            telemetry_dir=telemetry_dir, on_work=self._cond.notify)
        self.run_id = self.ledger.run_id
        self.metrics = self.ledger.metrics
        self.telemetry = self.ledger.telemetry
        self._m_request_seconds = self.metrics.histogram(
            "repro_request_seconds", "protocol request handling time")
        self.ledger.ops = {
            "submit": self._op_submit,
            **{name: self._locked(op)
               for name, op in self.ledger.ops.items()},
            "result": self._op_result, "health": self._op_health}

    def _locked(self, op):
        def call(request: Dict[str, Any]) -> Dict[str, Any]:
            with self._cond:
                return op(request)
        return call

    # -- lifecycle ---------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, spawn acceptor + dispatchers, return ``(host, port)``."""
        self.ledger.started_at = time.monotonic()
        swept = self.cache.sweep()
        if swept:
            _log.warning("cache-sweep", removed=swept)
        for i in range(self.workers):
            self._spawn(f"repro-dispatch-{i}", self._dispatch_loop,
                        f"local-{i}")
        return self._listen()

    def stop(self, drain: bool = False,
             drain_timeout: Optional[float] = None) -> None:
        """Shut the server down.

        With ``drain=True`` the server first stops admitting new jobs
        (submissions are rejected with a ``draining`` backpressure
        reason) and waits up to ``drain_timeout`` seconds (default: the
        server's ``drain_timeout``) for every accepted job to reach a
        final state — no accepted job is dropped by a graceful
        shutdown.  Status/result requests keep being answered while
        draining, so waiting clients collect their results.
        """
        if self._stop.is_set():
            return
        if drain:
            self.ledger.draining = True
            _log.info("drain-start", pending=self.pending_jobs())
            budget = self.drain_timeout if drain_timeout is None \
                else drain_timeout
            deadline = time.monotonic() + max(0.0, budget)
            while self.pending_jobs() and time.monotonic() < deadline \
                    and not self._stop.is_set():
                time.sleep(0.02)
            _log.info("drain-finish", pending=self.pending_jobs())
        if self._stop.is_set():
            return
        with self._cond:
            self.ledger.stopping = True
            self._cond.notify_all()
        self._close()
        self.pool.shutdown()

    @property
    def running(self) -> bool:
        return self.ledger.started_at is not None \
            and not self._stop.is_set()

    def pending_jobs(self) -> int:
        """Accepted jobs not yet in a final state (queued or running)."""
        with self._cond:
            return self.ledger.unfinished()

    # -- submission --------------------------------------------------

    def submit(self, payload: Dict[str, Any],
               deadline: Optional[float] = None,
               max_retries: Optional[int] = None,
               ctx: Optional[Dict[str, Any]] = None,
               trace_ctx: Optional[Dict[str, Any]] = None) -> Job:
        """Admit a payload: dedup against in-flight work, answer from
        cache, or enqueue.  Raises :class:`QueueFullError` on
        backpressure and ValueError on malformed payloads.  ``ctx``
        carries the client's correlation IDs into the job's logs;
        ``trace_ctx`` carries a distributed trace context.  Neither
        participates in dedup (see :class:`Job`)."""
        return self._admit({"payload": payload, "deadline": deadline,
                            "max_retries": max_retries, "ctx": ctx,
                            "trace_ctx": trace_ctx})[0]

    def _admit(self, request: Dict[str, Any]) -> Tuple[Job, bool]:
        ledger = self.ledger
        digest, trace = ledger.open_submit(request)
        # one critical section from the dedup check to the enqueue, so
        # the reported ``deduped`` flag is the decision that was made
        with self._cond:
            cached = None
            if ledger.live_job(digest) is None and not ledger.draining:
                t0_wall, t0 = time.time(), time.perf_counter()
                cached = self.cache.get(digest)
                if trace is not None:
                    ledger.spans.record(
                        "cache-lookup", trace["span"].child(), cat="cache",
                        start_wall=t0_wall,
                        duration=time.perf_counter() - t0,
                        parent_id=trace["span"].span_id,
                        digest=digest, hit=cached is not None)
            return ledger.admit(request, digest, cached, trace)

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self.ledger.jobs.get(job_id)

    # -- dispatching -------------------------------------------------

    def _dispatch_loop(self, name: str) -> None:
        """One local ledger node: claim a lease, run it, settle it."""
        ledger = self.ledger
        with self._cond:
            node = ledger.touch_node(name, local=True)
        while True:
            with self._cond:
                if ledger.stopping:
                    return
                claimed = ledger.claim(node)
                if not claimed:
                    self._cond.wait(timeout=0.2)
                    continue
                job, _reason = ledger.start(node, claimed[0].id)
                remaining = job.remaining() if job is not None else None
            if job is None:
                continue  # canceled or expired between claim and start
            t0_wall, t0 = time.time(), time.perf_counter()
            outcome, value = run_leased(self.pool, job.id, job.payload,
                                        job.ctx, remaining)
            if outcome == "done":
                self.cache.put(job.digest, value)
            with self._cond:
                delay = ledger.settle(name, job, outcome, value, t0_wall,
                                      time.perf_counter() - t0)
            if delay is not None:
                timer = threading.Timer(delay, self._requeue, (job.id,))
                timer.daemon = True
                timer.start()

    def _requeue(self, job_id: str) -> None:
        with self._cond:
            self.ledger.requeue(job_id)

    # -- protocol handling -------------------------------------------

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one protocol request (also the unit-test entry point)."""
        with self._m_request_seconds.time():
            return self.ledger.dispatch(request)

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            job, deduped = self._admit(request)
        except QueueFullError as exc:
            return protocol.error_response(exc.reason, code="backpressure")
        except (ValueError, KeyError) as exc:
            return protocol.error_response(str(exc), code="bad-request")
        if request.get("wait"):
            job.finished.wait(timeout=request.get("wait_timeout"))
        return job_response(
            job, deduped=deduped,
            include_result=bool(request.get("wait")),
            include_trace=bool(request.get("include_trace")))

    def _op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._cond:
            job, err = self.ledger.lookup(request)
        if err:
            return err
        if request.get("wait"):
            job.finished.wait(timeout=request.get("wait_timeout"))
        return self.ledger.result_response(job, request)

    def _op_health(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._cond:
            health = self.ledger.op_health(request)
        health.update(
            workers=self.workers,
            pool_mode="inline" if self.pool.inline else "process",
            cache_entries=len(self.cache),
            cache_stats=self.cache.stats())
        return health
