"""The job server: the one threaded shell around the job ledger.

``repro serve`` and ``repro cluster gateway`` run this class; they
differ only in the arguments they pass.  Every decision about a job is
the :class:`~repro.service.ledger.JobLedger`'s (admission, dedup,
leases, crash retry, cancel — see its module docstring).
:class:`ParallelizationServer` supplies what the ledger leaves open:

* a listening socket with a handler thread per connection
  (:class:`repro.service.protocol.ThreadedServer`);
* one :class:`threading.Condition` that guards every ledger call and
  wakes idle executors and long-polling ``work-pull`` requests;
* the result cache, a :class:`repro.cluster.shardcache.ShardedCache` —
  one in-process shard for ``serve``, the shard nodes of ``--shard`` for
  the gateway;
* ``jobs`` embedded executor threads, each a local ledger node that
  claims one lease at a time (stealing when the queue is empty) and runs
  it on the shared :class:`~repro.experiments.executor.WorkerPool`
  (worker *processes*, degrading to in-thread execution where pools are
  unavailable); ``jobs=0`` leaves execution to the fleet;
* the worker fleet's five ops (:mod:`repro.cluster.workers`):
  ``work-pull`` (batched ``claim``, long-poll on the Condition, ``steal``
  when the queue stays empty), ``work-start``, ``work-done``,
  ``work-fail`` (kind: ``crash``/``error``/``timeout``) and
  ``heartbeat``;
* a thread running the dead-node ``sweep`` every quarter
  ``heartbeat_timeout``, an optional telemetry publisher thread, and a
  :class:`threading.Timer` per crash retry delay.

No lock is held across cache or pool I/O: the cache is probed outside
the Condition and ``ledger.admit`` re-checks dedup, so a remote shard
never serialises admissions.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.executor import WorkerPool, resolve_jobs
from repro.obs import logging as obs_logging
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.execution import run_leased
from repro.service.jobs import Job, QueueFullError
from repro.service.ledger import (DEFAULT_HEARTBEAT_TIMEOUT, JobLedger,
                                  job_response)

_log = obs_logging.get_logger("repro.service")

#: tier label -> (trace lane / span ``cat``, default run-id prefix)
_TIERS = {"single-node": ("daemon", "svc"), "cluster": ("gateway", "gw")}


class ParallelizationServer(protocol.ThreadedServer):
    """The job server (see module docstring).

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.address`` after :meth:`start`.  ``jobs=None`` means
    ``$REPRO_JOBS`` or 1 embedded executors.  With no ``shards`` one
    in-process shard over ``ResultCache(cache_capacity, cache_dir)``
    backs the cache.  ``telemetry_interval`` (seconds) turns on the
    background telemetry publisher.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 jobs: Optional[int] = None, shards=None,
                 queue_capacity: int = 64, cache_capacity: int = 128,
                 cache_dir: Optional[str] = None,
                 default_deadline: Optional[float] = None,
                 max_retries: int = 1, retry_backoff: float = 0.5,
                 drain_timeout: float = 30.0,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 inline: Optional[bool] = None,
                 telemetry_dir: Optional[str] = None,
                 telemetry_interval: Optional[float] = None,
                 run_id: Optional[str] = None,
                 tier: str = "single-node"):
        # imported here: repro.cluster imports this package
        from repro.cluster.shardcache import LocalShard, ShardedCache
        super().__init__(host, port)
        self.workers = resolve_jobs() if jobs is None else jobs
        self.drain_timeout = drain_timeout
        self.telemetry_interval = telemetry_interval

        self._cond = threading.Condition()   # guards every ledger call
        node, prefix = _TIERS[tier]
        self.ledger = JobLedger(
            tier, node, run_id or f"{prefix}-{os.getpid()}",
            clock=time.monotonic, wall=time.time,
            capacity=queue_capacity, default_deadline=default_deadline,
            max_retries=max_retries, retry_backoff=retry_backoff,
            heartbeat_timeout=heartbeat_timeout,
            telemetry_dir=telemetry_dir, on_work=self._cond.notify)
        self.run_id = self.ledger.run_id
        self.metrics = self.ledger.metrics
        self.telemetry = self.ledger.telemetry
        if shards is None:
            results = ResultCache(cache_capacity, directory=cache_dir)
            swept = results.sweep()
            if swept:
                _log.warning("cache-sweep", removed=swept)
            shards = ShardedCache({"local": LocalShard(results)},
                                  registry=self.metrics)
        self.cache = shards
        self.cache.set_span_sink(self.ledger.ingest_spans)
        self.pool = WorkerPool(self.workers, inline=inline) \
            if self.workers else None

        m = self.metrics
        self._m_request_seconds = m.histogram(
            "repro_request_seconds", "protocol request handling time")
        self._m_sessions = m.gauge(
            "repro_cluster_sessions", "connected protocol sessions")
        self._m_pulls = m.counter(
            "repro_cluster_pulls_total", "work-pull requests, by outcome "
            "(jobs/steal/empty)")
        m.counter("repro_cluster_steals_total", "jobs stolen from a busy "
                  "node's unstarted backlog")
        m.counter("repro_cluster_dead_nodes_total", "worker nodes declared "
                  "dead after missed heartbeats")
        self._m_heartbeats = m.counter(
            "repro_cluster_heartbeats_total", "worker heartbeats received")

        self.ledger.ops = {
            "submit": self._op_submit,
            **{name: self._locked(op)
               for name, op in self.ledger.ops.items()},
            "result": self._op_result,
            "health": self._op_health,
            "telemetry": self._op_telemetry,
            "work-pull": self._op_work_pull,
            "work-start": self._op_work_start,
            "work-done": self._op_work_done,
            "work-fail": self._op_work_fail,
            "heartbeat": self._op_heartbeat,
        }

    def _locked(self, op: Callable) -> Callable:
        def call(request: Dict[str, Any]) -> Dict[str, Any]:
            with self._cond:
                return op(request)
        return call

    # -- lifecycle ---------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, spawn acceptor, executors and background threads;
        return ``(host, port)``."""
        self.ledger.started_at = time.monotonic()
        for i in range(self.workers):
            self._spawn(f"repro-exec-{i}", self._dispatch_loop,
                        f"local-{i}")
        self._spawn("repro-sweep", self._every,
                    max(0.1, self.ledger.heartbeat_timeout / 4),
                    self._sweep_dead_nodes)
        if self.telemetry_interval:
            self._spawn("repro-telemetry", self._every,
                        max(0.2, self.telemetry_interval),
                        self._publish_telemetry)
        address = self._listen()
        _log.info("server-start", tier=self.ledger.tier, host=address[0],
                  port=address[1], workers=self.workers,
                  shards=len(self.cache.shard_names))
        return address

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
                else float(drain_timeout)
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
        _log.info("server-stop", pending=self.pending_jobs())
        self._close()
        if self.pool is not None:
            self.pool.shutdown()
        self.cache.close()

    @property
    def running(self) -> bool:
        return self.ledger.started_at is not None \
            and not self._stop.is_set()

    def pending_jobs(self) -> int:
        """Accepted jobs not yet in a final state (queued or running)."""
        with self._cond:
            return self.ledger.unfinished()

    def _session(self, conn) -> None:
        self._m_sessions.inc()
        try:
            super()._session(conn)
        finally:
            self._m_sessions.dec()

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
        with self._cond:
            probe = ledger.live_job(digest) is None \
                and not (ledger.draining or ledger.stopping)
        # the probe runs unlocked; admit re-checks dedup, so the reported
        # ``deduped`` flag is the decision admit made
        cached = self._cache_lookup(digest, trace) if probe else None
        with self._cond:
            return ledger.admit(request, digest, cached, trace)

    def _cache_lookup(self, digest: str, trace: Optional[Dict[str, Any]]
                      ) -> Optional[Dict[str, Any]]:
        if trace is None:
            return self.cache.get(digest)
        # a remote shard's own span nests under this one
        span = trace["span"].child()
        t0_wall, t0 = time.time(), time.perf_counter()
        cached = self.cache.get(digest,
                                {"traceparent": span.to_traceparent()})
        self.telemetry.tracer.record(
            "cache-lookup", span, cat="cache", start_wall=t0_wall,
            duration=time.perf_counter() - t0,
            parent_id=trace["span"].span_id, digest=digest,
            hit=cached is not None)
        return cached

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self.ledger.jobs.get(job_id)

    # -- embedded executors, retry delays, background ticks ----------

    def _dispatch_loop(self, name: str) -> None:
        """One local ledger node: claim (or steal) a lease, run it,
        settle it."""
        ledger = self.ledger
        with self._cond:
            node = ledger.touch_node(name, local=True)
        while True:
            with self._cond:
                if ledger.stopping:
                    return
                claimed = ledger.claim(node)
                job = claimed[0] if claimed else ledger.steal(node)
                if job is None:
                    self._cond.wait(timeout=0.2)
                    continue
                job, _reason = ledger.start(node, job.id)
                remaining = job.remaining() if job is not None else None
            if job is None:
                continue  # canceled or expired between claim and start
            t0_wall, t0 = time.time(), time.perf_counter()
            outcome, value = run_leased(self.pool, job.id, job.payload,
                                        job.ctx, remaining)
            if outcome == "done":
                self.cache.put(job.digest, value, job.trace_ctx)
            with self._cond:
                delay = ledger.settle(name, job, outcome, value, t0_wall,
                                      time.perf_counter() - t0)
            if delay is not None:
                self._retry_later(job.id, delay)

    def _retry_later(self, job_id: str, delay: float) -> None:
        timer = threading.Timer(delay, self._requeue, (job_id,))
        timer.daemon = True
        timer.start()

    def _requeue(self, job_id: str) -> None:
        with self._cond:
            self.ledger.requeue(job_id)

    def _every(self, interval: float, tick: Callable[[], None]) -> None:
        while not self._stop.wait(interval):
            try:
                tick()
            except Exception as exc:  # must never take the server down
                _log.warning("tick-failed", tick=tick.__name__,
                             error=f"{type(exc).__name__}: {exc}")

    def _sweep_dead_nodes(self) -> None:
        with self._cond:
            retries = self.ledger.sweep()
        for job_id, delay in retries:
            self._retry_later(job_id, delay)

    def _publish_telemetry(self) -> None:
        health = self._op_health({})
        with self._cond:
            self.ledger.snapshot_telemetry(health)

    # -- client ops that wait or reach the cache ---------------------

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
        shard_stats = self.cache.shard_stats()
        with self._cond:
            health = self.ledger.op_health(request)
            nodes = self.ledger.nodes_view()
        health.update(
            workers=self.workers,
            pool_mode=("inline" if self.pool.inline else "process")
            if self.pool is not None else "fleet",
            cache_entries=sum(s.get("entries", 0)
                              for s in shard_stats.values()
                              if s.get("alive")),
            cache_stats=self.cache.stats(shard_stats),
            cluster={
                "ring": self.cache.ring_info(),
                "shards": shard_stats,
                "worker_nodes": nodes,
                "workers_alive": sum(1 for w in nodes.values()
                                     if w["alive"]),
                "gateway_uptime": health["uptime"],
                "run_id": self.run_id,
                "clock_offsets": self.ledger.clock_model.to_dict(),
            })
        return health

    def _op_telemetry(self, request: Dict[str, Any]) -> Dict[str, Any]:
        health = self._op_health({})
        with self._cond:
            return self.ledger.telemetry_frame(request, health)

    # -- worker-fleet ops: the wire form of the lease transitions ----

    @staticmethod
    def _job_descriptor(job: Job) -> Dict[str, Any]:
        descriptor = {"job_id": job.id, "digest": job.digest,
                      "payload": job.payload, "ctx": job.ctx,
                      "attempts": job.attempts,
                      "max_retries": job.max_retries,
                      "remaining": job.remaining()}
        if job.trace_ctx is not None:
            descriptor["trace_ctx"] = job.trace_ctx
        return descriptor

    @staticmethod
    def _lease_ids(request: Dict[str, Any], what: str):
        """``(node name, job id, None)`` of a worker report, or a
        ``bad-request`` error in the third slot."""
        name, job_id = request.get("node"), request.get("job_id")
        if isinstance(name, str) and name and isinstance(job_id, str):
            return name, job_id, None
        return None, None, protocol.error_response(
            f"{what} need 'node' and 'job_id'", code="bad-request")

    @staticmethod
    def _accepted(accepted: bool) -> Dict[str, Any]:
        if accepted:
            return {"ok": True, "accepted": True}
        return {"ok": True, "accepted": False, "reason": "stale lease"}

    def _op_work_pull(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = request.get("node")
        if not isinstance(name, str) or not name:
            return protocol.error_response(
                "work-pull needs a 'node' name", code="bad-request")
        ledger = self.ledger
        limit = max(1, int(request.get("max_jobs", 1)))
        deadline = time.monotonic() + float(request.get("wait", 0.0))
        with self._cond:
            claimed: List[Job] = ledger.claim(ledger.touch_node(name), limit)
            while not claimed and not ledger.stopping:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.5))
                claimed = ledger.claim(ledger.touch_node(name), limit)
            outcome = "jobs"
            if not claimed:
                stolen = ledger.steal(ledger.touch_node(name))
                claimed = [stolen] if stolen is not None else []
                outcome = "steal" if claimed else "empty"
            self._m_pulls.inc(outcome=outcome)
            return {"ok": True, "draining": ledger.draining,
                    "stopping": ledger.stopping,
                    "jobs": [self._job_descriptor(job) for job in claimed]}

    def _op_work_start(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name, job_id, err = self._lease_ids(request, "work-start")
        if err:
            return err
        with self._cond:
            job, reason = self.ledger.start(self.ledger.touch_node(name),
                                            job_id)
            if job is None:
                return {"ok": True, "granted": False, "reason": reason}
            return {"ok": True, "granted": True, "attempts": job.attempts,
                    "remaining": job.remaining()}

    def _op_work_done(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name, job_id, err = self._lease_ids(request, "worker reports")
        if err:
            return err
        with self._cond:
            job = self.ledger.holds(name, job_id)
        if job is None:
            return self._accepted(False)
        result = request.get("result")
        if not isinstance(result, dict):
            return protocol.error_response(
                "work-done needs a 'result' object", code="bad-request")
        # the cache has the result before any waiter sees the job done;
        # a duplicate report that slipped in meanwhile is refused below
        self.cache.put(job.digest, result, job.trace_ctx)
        with self._cond:
            return self._accepted(self.ledger.done(name, job_id, result))

    def _op_work_fail(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name, job_id, err = self._lease_ids(request, "worker reports")
        if err:
            return err
        with self._cond:
            accepted, delay = self.ledger.fail(
                name, job_id, request.get("kind", "error"),
                str(request.get("error", "")))
        if delay is not None:
            self._retry_later(job_id, delay)
        return self._accepted(accepted)

    def _op_heartbeat(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = request.get("node")
        if not isinstance(name, str) or not name:
            return protocol.error_response(
                "heartbeat needs a 'node' name", code="bad-request")
        self._m_heartbeats.inc()
        with self._cond:
            merged = self.ledger.heartbeat(name, request)
            return {"ok": True, "draining": self.ledger.draining,
                    "stopping": self.ledger.stopping, "merged": merged,
                    "seq": self.ledger.nodes[name].last_seq}
