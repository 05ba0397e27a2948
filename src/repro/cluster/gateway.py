"""The cluster gateway: an asyncio shell around the job ledger.

One :class:`ClusterGateway` multiplexes thousands of concurrent client
sessions over a single event loop while speaking exactly the protocol of
the single-node daemon — the synchronous
:class:`repro.service.client.ServiceClient` works unchanged, frame for
frame.  Every decision about a job is the
:class:`~repro.service.ledger.JobLedger`'s, the same one the daemon
wraps; the gateway adds the cluster's transport:

* the result cache is a :class:`repro.cluster.shardcache.ShardedCache` —
  payload digests route over a consistent-hash ring to shard nodes;
* a worker fleet (:mod:`repro.cluster.workers`) drives the ledger's
  lease transitions over five extra ops: ``work-pull`` (batched
  ``claim``, long-poll, ``steal`` when the queue stays empty),
  ``work-start``, ``work-done``, ``work-fail`` (kind: ``crash``/
  ``error``/``timeout``) and ``heartbeat``;
* tasks run the dead-node ``sweep`` every quarter ``heartbeat_timeout``
  and publish telemetry snapshots; retry delays are ``loop.call_later``;
* ``local_workers`` embedded executors are local ledger nodes driven
  through the *same* transitions as remote ones, so one process can
  serve a full cluster surface (tests, small deployments).

Concurrency model: the ledger is owned by the event loop and touched
only from coroutines, so there are no locks; blocking work (shard-cache
socket I/O, the embedded worker pool) goes through
``asyncio.to_thread``, and ``admit`` re-checks dedup after the cache
probe's ``await`` could have admitted a competitor.
"""

from __future__ import annotations

import asyncio
import inspect
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.shardcache import LocalShard, ShardedCache
from repro.experiments.executor import WorkerPool, resolve_jobs
from repro.obs import logging as obs_logging
from repro.service import protocol
from repro.service.execution import run_leased
from repro.service.jobs import FINAL_STATES, Job, QueueFullError
from repro.service.ledger import (DEFAULT_HEARTBEAT_TIMEOUT, JobLedger, Node,
                                  job_response)

_log = obs_logging.get_logger("repro.cluster.gateway")


class ClusterGateway:
    """Asyncio gateway: client front door + worker-fleet coordinator.

    ``port=0`` binds an ephemeral port; read ``gateway.address`` after
    start.  With no ``shards`` a single in-process shard backs the
    cache, so a bare gateway still dedups and caches.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 shards: Optional[ShardedCache] = None,
                 queue_capacity: int = 256,
                 default_deadline: Optional[float] = None,
                 max_retries: int = 1, retry_backoff: float = 0.5,
                 drain_timeout: float = 30.0,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 local_workers: int = 0,
                 inline: Optional[bool] = None,
                 telemetry_dir: Optional[str] = None,
                 telemetry_interval: float = 2.0,
                 run_id: Optional[str] = None):
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.local_workers = local_workers
        self.telemetry_interval = telemetry_interval
        self._work_available = asyncio.Event()
        self._waiters: Dict[str, asyncio.Event] = {}  # awaited job ids
        self.ledger = JobLedger(
            "cluster", "gateway", run_id or f"gw-{os.getpid()}",
            clock=time.monotonic, wall=time.time,
            capacity=queue_capacity, default_deadline=default_deadline,
            max_retries=max_retries, retry_backoff=retry_backoff,
            heartbeat_timeout=heartbeat_timeout,
            telemetry_dir=telemetry_dir,
            on_work=self._work_available.set, on_finish=self._wake)
        self.run_id = self.ledger.run_id
        self.metrics = self.ledger.metrics
        self.telemetry = self.ledger.telemetry
        self.cache = shards if shards is not None else ShardedCache(
            {"local": LocalShard()}, registry=self.metrics)
        self.cache.set_span_sink(self.ledger.ingest_spans)
        self.pool = WorkerPool(resolve_jobs(local_workers or 1),
                               inline=inline) if local_workers else None

        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped_async = asyncio.Event()
        self._tasks: List[asyncio.Task] = []
        self._ready = threading.Event()    # address bound (background mode)
        self._finished = threading.Event()  # loop exited (background mode)
        self._thread: Optional[threading.Thread] = None

        m = self.metrics
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
            **self.ledger.ops,
            "result": self._op_result,
            "health": self._op_health,
            "work-pull": self._op_work_pull,
            "work-start": self._op_work_start,
            "work-done": self._op_work_done,
            "work-fail": self._op_work_fail,
            "heartbeat": self._op_heartbeat,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start_async(self) -> Tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self.ledger.started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        self._tasks.append(asyncio.ensure_future(self._sweep_loop()))
        self._tasks.append(asyncio.ensure_future(self._telemetry_loop()))
        for i in range(self.local_workers):
            self._tasks.append(asyncio.ensure_future(
                self._local_worker_loop(f"local-{i}")))
        _log.info("gateway-start", host=self.address[0],
                  port=self.address[1], local_workers=self.local_workers,
                  shards=len(self.cache.shard_names))
        self._ready.set()
        return self.address

    async def run(self) -> None:
        """Start and serve until a shutdown request stops the gateway."""
        await self.start_async()
        await self._stopped_async.wait()

    async def stop_async(self) -> None:
        if self.ledger.stopping:
            return
        self.ledger.stopping = True
        _log.info("gateway-stop", pending=self.pending_jobs())
        if self._server is not None:
            self._server.close()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self._server is not None:
            try:
                await self._server.wait_closed()
            except Exception:
                pass
        if self.pool is not None:
            self.pool.shutdown()
        await asyncio.to_thread(self.cache.close)
        self._stopped_async.set()

    async def _shutdown_task(self, drain: bool,
                             drain_timeout: Optional[float]) -> None:
        if drain and not self.ledger.stopping:
            self.ledger.draining = True
            budget = self.drain_timeout if drain_timeout is None \
                else float(drain_timeout)
            deadline = time.monotonic() + max(0.0, budget)
            _log.info("drain-start", pending=self.pending_jobs())
            while self.pending_jobs() and time.monotonic() < deadline \
                    and not self.ledger.stopping:
                await asyncio.sleep(0.02)
            _log.info("drain-finish", pending=self.pending_jobs())
        await self.stop_async()

    # -- background (thread) mode: sync callers, tests, the CLI --------

    def start_background(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Run the gateway's event loop in a daemon thread; returns the
        bound address.  Pair with :meth:`stop` / :meth:`wait`."""
        self._thread = threading.Thread(target=self._thread_main,
                                        name="repro-gateway", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise RuntimeError("gateway failed to start within "
                               f"{timeout}s")
        assert self.address is not None
        return self.address

    def _thread_main(self) -> None:
        try:
            asyncio.run(self.run())
        finally:
            self._finished.set()

    def stop(self, drain: bool = False,
             drain_timeout: Optional[float] = None) -> None:
        """Thread-safe shutdown request (background mode)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(
                    self._shutdown_task(drain, drain_timeout)))
        except RuntimeError:
            pass  # loop already gone

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._finished.wait(timeout=timeout)

    @property
    def running(self) -> bool:
        return self.ledger.started_at is not None \
            and not self.ledger.stopping

    def pending_jobs(self) -> int:
        return self.ledger.unfinished()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._m_sessions.inc()
        try:
            while not self.ledger.stopping:
                try:
                    request = await protocol.read_message_async(reader)
                except protocol.ProtocolError:
                    return
                try:
                    response = await self.handle_request(request)
                except Exception as exc:
                    response = protocol.error_response(
                        f"{type(exc).__name__}: {exc}", code="internal")
                frame, shutdown = protocol.reply_frame(response)
                try:
                    writer.write(frame)
                    await writer.drain()
                except (OSError, ConnectionResetError):
                    return
                if shutdown is not None:
                    asyncio.ensure_future(self._shutdown_task(**shutdown))
                    return
        except asyncio.CancelledError:
            return  # loop teardown mid-request (e.g. a worker long-poll)
        finally:
            self._m_sessions.dec()
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionResetError,
                    asyncio.CancelledError):
                pass

    async def handle_request(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        """Answer one protocol request (also the unit-test entry point)."""
        response = self.ledger.dispatch(request)
        if inspect.isawaitable(response):
            response = await response
        return response

    # ------------------------------------------------------------------
    # client ops that need the loop (the rest are the ledger's)
    # ------------------------------------------------------------------

    async def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        ledger = self.ledger
        try:
            digest, trace = ledger.open_submit(request)
            cached = None
            if ledger.live_job(digest) is None \
                    and not (ledger.draining or ledger.stopping):
                # probe the shard tier off-loop.  When traced, the cache
                # carries the job span's context and the shard
                # piggybacks its own span on the response.
                cached = await asyncio.to_thread(
                    self.cache.get, digest,
                    None if trace is None
                    else {"traceparent": trace["span"].to_traceparent()})
            job, deduped = ledger.admit(request, digest, cached, trace)
        except QueueFullError as exc:
            return protocol.error_response(exc.reason, code="backpressure")
        except ValueError as exc:
            return protocol.error_response(str(exc), code="bad-request")
        if request.get("wait"):
            await self._wait_finished(job, request.get("wait_timeout"))
        return job_response(
            job, deduped=deduped,
            include_result=bool(request.get("wait")),
            include_trace=bool(request.get("include_trace")))

    async def _wait_finished(self, job: Job,
                             timeout: Optional[float]) -> None:
        if job.state in FINAL_STATES:
            return
        event = self._waiters.setdefault(job.id, asyncio.Event())
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    def _wake(self, job: Job) -> None:
        event = self._waiters.pop(job.id, None)
        if event is not None:
            event.set()

    async def _op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job, err = self.ledger.lookup(request)
        if err:
            return err
        if request.get("wait"):
            await self._wait_finished(job, request.get("wait_timeout"))
        return self.ledger.result_response(job, request)

    async def _op_health(self, request: Dict[str, Any]) -> Dict[str, Any]:
        shard_stats = await asyncio.to_thread(self.cache.shard_stats)
        health = self.ledger.op_health(request)
        workers = self.ledger.nodes_view()
        health.update(
            workers=self.local_workers,
            pool_mode=("inline" if self.pool.inline else "process")
            if self.pool is not None else "fleet",
            cache_entries=sum(s.get("entries", 0)
                              for s in shard_stats.values()
                              if s.get("alive")),
            cache_stats=self.cache.stats(shard_stats),
            cluster={
                "ring": self.cache.ring_info(),
                "shards": shard_stats,
                "worker_nodes": workers,
                "workers_alive": sum(
                    1 for w in workers.values() if w["alive"]),
                "gateway_uptime": health["uptime"],
                "run_id": self.run_id,
                "clock_offsets": self.ledger.clock_model.to_dict(),
            })
        return health

    async def _telemetry_loop(self) -> None:
        interval = max(0.2, self.telemetry_interval)
        while True:
            await asyncio.sleep(interval)
            try:
                self.ledger.snapshot_telemetry(await self._op_health({}))
            except asyncio.CancelledError:
                raise
            except Exception:
                pass  # telemetry must never take the gateway down

    # ------------------------------------------------------------------
    # worker-fleet ops: the wire form of the ledger's lease transitions
    # ------------------------------------------------------------------

    def _claim(self, node: Node, limit: int) -> List[Job]:
        claimed = self.ledger.claim(node, limit)
        if not self.ledger.pending:
            self._work_available.clear()
        return claimed

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

    async def _op_work_pull(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        name = request.get("node")
        if not isinstance(name, str) or not name:
            return protocol.error_response(
                "work-pull needs a 'node' name", code="bad-request")
        ledger = self.ledger
        limit = max(1, int(request.get("max_jobs", 1)))
        deadline = time.monotonic() + float(request.get("wait", 0.0))
        claimed = self._claim(ledger.touch_node(name), limit)
        while not claimed and not ledger.stopping:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(self._work_available.wait(),
                                       min(remaining, 0.5))
            except asyncio.TimeoutError:
                pass
            claimed = self._claim(ledger.touch_node(name), limit)
        outcome = "jobs"
        if not claimed:
            stolen = ledger.steal(ledger.touch_node(name))
            claimed = [stolen] if stolen is not None else []
            outcome = "steal" if claimed else "empty"
        self._m_pulls.inc(outcome=outcome)
        return {"ok": True, "draining": ledger.draining,
                "stopping": ledger.stopping,
                "jobs": [self._job_descriptor(job) for job in claimed]}

    async def _op_work_start(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        name, job_id, err = self._lease_ids(request, "work-start")
        if err:
            return err
        job, reason = self.ledger.start(self.ledger.touch_node(name),
                                        job_id)
        if job is None:
            return {"ok": True, "granted": False, "reason": reason}
        return {"ok": True, "granted": True, "attempts": job.attempts,
                "remaining": job.remaining()}

    @staticmethod
    def _accepted(accepted: bool) -> Dict[str, Any]:
        if accepted:
            return {"ok": True, "accepted": True}
        return {"ok": True, "accepted": False, "reason": "stale lease"}

    async def _op_work_done(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        name, job_id, err = self._lease_ids(request, "worker reports")
        if err:
            return err
        job = self.ledger.holds(name, job_id)
        if job is None:
            return self._accepted(False)
        result = request.get("result")
        if not isinstance(result, dict):
            return protocol.error_response(
                "work-done needs a 'result' object", code="bad-request")
        # the cache has the result before any waiter sees the job done;
        # a duplicate report that slipped in meanwhile is refused below
        await asyncio.to_thread(self.cache.put, job.digest, result,
                                job.trace_ctx)
        return self._accepted(self.ledger.done(name, job_id, result))

    async def _op_work_fail(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        name, job_id, err = self._lease_ids(request, "worker reports")
        if err:
            return err
        accepted, delay = self.ledger.fail(
            name, job_id, request.get("kind", "error"),
            str(request.get("error", "")))
        if delay is not None:
            self._retry_later(job_id, delay)
        return self._accepted(accepted)

    async def _op_heartbeat(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        name = request.get("node")
        if not isinstance(name, str) or not name:
            return protocol.error_response(
                "heartbeat needs a 'node' name", code="bad-request")
        self._m_heartbeats.inc()
        merged = self.ledger.heartbeat(name, request)
        return {"ok": True, "draining": self.ledger.draining,
                "stopping": self.ledger.stopping, "merged": merged,
                "seq": self.ledger.nodes[name].last_seq}

    # ------------------------------------------------------------------
    # retry delays, the dead-node sweeper, embedded local workers
    # ------------------------------------------------------------------

    def _retry_later(self, job_id: str, delay: float) -> None:
        asyncio.get_running_loop().call_later(
            delay, self.ledger.requeue, job_id)

    def _sweep_dead_nodes(self) -> None:
        for job_id, delay in self.ledger.sweep():
            self._retry_later(job_id, delay)

    async def _sweep_loop(self) -> None:
        interval = max(0.1, self.ledger.heartbeat_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            self._sweep_dead_nodes()

    async def _local_worker_loop(self, name: str) -> None:
        """An embedded worker: a local ledger node driven through the
        same lease transitions as a remote one."""
        ledger = self.ledger
        while not ledger.stopping:
            node = ledger.touch_node(name, local=True)
            claimed = self._claim(node, 1)
            job = claimed[0] if claimed else ledger.steal(node)
            if job is not None:
                job, _reason = ledger.start(node, job.id)
            if job is None:
                if not ledger.pending:
                    try:
                        await asyncio.wait_for(
                            self._work_available.wait(), 0.2)
                    except asyncio.TimeoutError:
                        pass
                continue
            t0_wall, t0 = time.time(), time.perf_counter()
            outcome, value = await asyncio.to_thread(
                run_leased, self.pool, job.id, job.payload, job.ctx,
                job.remaining())
            if outcome == "done":
                await asyncio.to_thread(self.cache.put, job.digest, value,
                                        job.trace_ctx)
            delay = ledger.settle(name, job, outcome, value, t0_wall,
                                  time.perf_counter() - t0)
            if delay is not None:
                self._retry_later(job.id, delay)
