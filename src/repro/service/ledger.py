"""The job ledger: the control plane's one copy of what happens to a job.

Both serving tiers — ``repro serve`` and ``repro cluster gateway`` —
run one transport shell, :class:`repro.service.server.ParallelizationServer`,
around one :class:`JobLedger`.  The ledger is *sans-IO*: it owns no
socket, thread, lock or event loop and never reads a clock of its own
(``clock`` and ``wall`` are passed in), so every transition is a plain
method call that tests drive with an injected clock.  The shell decides
how requests arrive, how to wait for a job, how to run one, how to reach
the result cache and how to schedule a retry delay, and it serialises
its calls (one ``threading.Condition``).

``docs/service.md`` ("The job ledger") describes admission, leases,
crash retry and cancel.  The invariants the tests hold it to: every
admitted job reaches exactly one final state and ``on_finish`` fires
exactly once for it; a job never runs twice (a moved, canceled or
expired lease refuses ``start``; reports for a lease the node no longer
holds are stale and change nothing); ``ctx`` and ``trace_ctx`` never
reach the dedup digest; the newest :data:`KEEP_FINISHED` finished jobs
stay answerable and older ids answer ``not-found``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs.distributed import (ClockModel, SpanRecorder, TraceContext,
                                   validate_trace_ctx)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import SpanStore, TelemetryStore
from repro.service.execution import PAYLOAD_KINDS
from repro.service.jobs import (FINAL_STATES, Job, JobState, QueueFullError,
                                payload_digest)
from repro.service.protocol import error_response

_log = obs_logging.get_logger("repro.service.ledger")

#: finished jobs kept answerable; older ones leave the table with their
#: trace records (a waiting client still holds its own reference)
KEEP_FINISHED = 1024

#: a remote node silent for this many seconds is declared dead
DEFAULT_HEARTBEAT_TIMEOUT = 5.0

#: scalar types allowed as correlation-context values on the wire
_CTX_SCALARS = (str, int, float, bool)


def _seconds(value: Any) -> bool:
    return type(value) in (int, float) and 0 < value < math.inf


#: the optional numbers of a submit request: what each must be if set
_SUBMIT_NUMBERS = {
    "deadline": ("a finite number of seconds > 0", _seconds),
    "wait_timeout": ("a finite number of seconds > 0", _seconds),
    "max_retries": ("an integer >= 0",
                    lambda value: type(value) is int and value >= 0),
}


def job_response(job: Job, deduped: bool = False,
                 include_result: bool = False,
                 include_trace: bool = False) -> Dict[str, Any]:
    """The standard job-status response (both tiers answer with this).
    The bulky ``trace`` key of a result is dropped unless asked for."""
    response = {"ok": True, "deduped": deduped}
    response.update(job.snapshot())
    if include_result and job.state == JobState.DONE:
        result = job.result
        if not include_trace and isinstance(result, dict) \
                and "trace" in result:
            result = {k: v for k, v in result.items() if k != "trace"}
        response["result"] = result
    return response


class Node:
    """One executor's leases (remote fleet worker or embedded)."""

    __slots__ = ("name", "local", "last_seen", "last_seq", "boot",
                 "unstarted", "running", "lease_at", "done", "failed",
                 "info")

    def __init__(self, name: str, local: bool, now: float):
        self.name = name
        self.local = local
        self.last_seen = now
        self.last_seq = 0            # highest merged metrics/span seq
        self.boot: Optional[str] = None  # node process incarnation id
        self.unstarted: set = set()  # leased job ids not yet started
        self.running: set = set()    # leased job ids executing
        self.lease_at: Dict[str, float] = {}  # job id -> lease time
        self.done = 0
        self.failed = 0
        self.info: Dict[str, Any] = {}


class JobLedger:
    """Job table, digest index, pending queue, node/lease table, the job
    counters and the traced-job span records (see module docstring).

    ``tier`` labels responses (``single-node``/``cluster``); ``node`` is
    this process's lane in distributed traces and the ``cat`` of the
    spans recorded here.  ``on_work`` fires when a job becomes claimable,
    ``on_finish(job)`` once per job reaching a final state.
    """

    def __init__(self, tier: str, node: str, run_id: str,
                 clock: Callable[[], float], wall: Callable[[], float],
                 capacity: int = 64,
                 default_deadline: Optional[float] = None,
                 max_retries: int = 1, retry_backoff: float = 0.5,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 telemetry_dir: Optional[str] = None,
                 on_work: Optional[Callable[[], None]] = None,
                 on_finish: Optional[Callable[[Job], None]] = None):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.tier = tier
        self.node = node
        self.run_id = run_id
        self.clock = clock
        self.wall = wall
        self.capacity = capacity
        self.default_deadline = default_deadline
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.heartbeat_timeout = heartbeat_timeout
        self.on_work = on_work
        self.on_finish = on_finish

        self.jobs: Dict[str, Job] = {}
        self.by_digest: Dict[str, str] = {}      # digest -> live job id
        self.pending: Deque[str] = deque()       # job ids awaiting a lease
        self.finished: Deque[str] = deque()      # retention order
        self.nodes: Dict[str, Node] = {}
        self.traced: Dict[str, Dict[str, Any]] = {}  # job id -> trace
        self.draining = False
        self.stopping = False
        self.started_at: Optional[float] = None

        # observability plane: spans recorded here + shipped from other
        # nodes, their wall-clock offsets, snapshots/events (persisted
        # when telemetry_dir is given)
        self.metrics = MetricsRegistry()
        self.clock_model = ClockModel()
        self.spans = SpanRecorder(node)
        self.span_store = SpanStore(telemetry_dir, run_id)
        self.telemetry = TelemetryStore(telemetry_dir, run_id)

        m = self.metrics
        self._m_submitted = m.counter(
            "repro_jobs_submitted_total", "jobs accepted into the queue")
        self._m_rejected = m.counter(
            "repro_jobs_rejected_total", "submissions rejected (queue full)")
        self._m_deduped = m.counter(
            "repro_jobs_deduped_total", "submissions joined to an "
            "in-flight job with the same digest")
        self._m_retried = m.counter(
            "repro_jobs_retried_total", "crash retries re-enqueued")
        self._m_completed = m.counter(
            "repro_jobs_completed_total", "jobs reaching a final state, "
            "by state")
        self._m_cache_hits = m.counter(
            "repro_cache_hits_total", "submissions answered from the "
            "result cache")
        self._m_cache_misses = m.counter(
            "repro_cache_misses_total", "submissions that had to run")
        self._m_depth = m.gauge(
            "repro_queue_depth", "jobs waiting in the queue")
        self._m_running = m.gauge(
            "repro_jobs_running", "jobs currently executing")
        self._m_uptime = m.gauge(
            "repro_uptime_seconds", "seconds since the service started")
        self._m_latency = m.histogram(
            "repro_job_latency_seconds", "submit-to-finish wall clock")
        self._m_requests = m.counter(
            "repro_requests_total", "protocol requests handled, by op")
        self._m_loops_parallel = m.counter(
            "repro_loops_parallel_total", "loops parallelized by "
            "finished jobs")
        self._m_loops_serial = m.counter(
            "repro_loops_serial_total", "loops left serial by finished "
            "jobs, by reason")

        #: the client surface both tiers answer; a shell adds the ops
        #: that need its transport (``submit``, waits, tier health)
        self.ops: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
            "status": self.op_status,
            "result": self.op_result,
            "cancel": self.op_cancel,
            "health": self.op_health,
            "metrics": self.op_metrics,
            "telemetry": self.op_telemetry,
            "trace-export": self.op_trace_export,
            "shutdown": self.op_shutdown,
        }

    # -- lifecycle ---------------------------------------------------

    def uptime(self) -> float:
        if self.started_at is None:
            return 0.0
        return self.clock() - self.started_at

    def unfinished(self) -> int:
        """Accepted jobs not yet in a final state (queued or running)."""
        return len(self.jobs) - len(self.finished)

    # -- admission ---------------------------------------------------

    def open_submit(self, request: Dict[str, Any]
                    ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Validate a submit request; returns the payload digest and the
        opened trace (None for untraced submissions — the common case
        costs one ``is None`` test).  Raises ValueError on a malformed
        request: nothing malformed may reach the job table, where a
        ``claim`` would trip over it."""
        payload = request.get("payload")
        if not isinstance(payload, dict):
            raise ValueError("submit needs a 'payload' object")
        kind = payload.get("kind")
        if kind not in PAYLOAD_KINDS:
            raise ValueError(f"unknown payload kind {kind!r}; "
                             f"expected one of {PAYLOAD_KINDS}")
        ctx = request.get("ctx")
        if ctx is not None and not (
                isinstance(ctx, dict)
                and all(isinstance(k, str) and isinstance(v, _CTX_SCALARS)
                        for k, v in ctx.items())):
            raise ValueError("'ctx' must map string keys to scalar values")
        for key, (want, valid) in _SUBMIT_NUMBERS.items():
            value = request.get(key)
            if value is not None and not valid(value):
                raise ValueError(f"'{key}' must be {want}, or null")
        trace_ctx = request.get("trace_ctx")
        problem = validate_trace_ctx(trace_ctx)
        if problem:
            raise ValueError(problem)
        return payload_digest(payload), self._open_trace(trace_ctx)

    def _open_trace(self, trace_ctx: Optional[Dict[str, Any]]
                    ) -> Optional[Dict[str, Any]]:
        """Open this tier's 'job' span for a traced submission: child of
        the client's root context, parent of the queue-wait/execute/
        cache spans (executors receive the *job span's* context)."""
        root = TraceContext.from_dict(trace_ctx)
        if root is None:
            return None
        return {"root": root, "span": root.child(),
                "submit_wall": self.wall()}

    def live_job(self, digest: str) -> Optional[Job]:
        live_id = self.by_digest.get(digest)
        if live_id is None:
            return None
        live = self.jobs[live_id]
        if live.state not in FINAL_STATES:
            return live
        del self.by_digest[digest]  # stale index entry
        return None

    def admit(self, request: Dict[str, Any], digest: str,
              cached: Optional[Dict[str, Any]],
              trace: Optional[Dict[str, Any]] = None) -> Tuple[Job, bool]:
        """Admit a validated submission: ``(job, deduped)``, or
        :class:`QueueFullError` carrying the backpressure reason."""
        if self.stopping or self.draining:
            self._m_rejected.inc()
            raise QueueFullError(
                "service is shutting down" if self.stopping else
                "service is draining before shutdown; no new jobs "
                "accepted")
        live = self.live_job(digest)
        if live is not None:
            self._m_deduped.inc()
            return live, True
        deadline = request.get("deadline")
        max_retries = request.get("max_retries")
        job = Job(digest=digest, payload=request["payload"],
                  deadline=self.default_deadline if deadline is None
                  else deadline,
                  max_retries=self.max_retries if max_retries is None
                  else max_retries,
                  ctx=dict(request.get("ctx") or {}),
                  submitted_at=self.clock())
        if trace is not None:
            job.trace_ctx = {"traceparent": trace["span"].to_traceparent()}
        if cached is not None:
            self._m_cache_hits.inc()
            job.cached = True
            self.jobs[job.id] = job
            if trace is not None:
                self.traced[job.id] = trace
            self._finalize(job, JobState.DONE, cached, "")
            return job, False
        self._m_cache_misses.inc()
        if len(self.pending) >= self.capacity:
            self._m_rejected.inc()
            raise QueueFullError(
                f"queue is full ({self.capacity} jobs waiting); "
                f"retry after the backlog drains")
        self._m_submitted.inc()
        self.jobs[job.id] = job
        self.by_digest[digest] = job.id
        if trace is not None:
            self.traced[job.id] = trace
        self._enqueue(job.id)
        return job, False

    def _enqueue(self, job_id: str, front: bool = False) -> None:
        if front:
            self.pending.appendleft(job_id)
        else:
            self.pending.append(job_id)
        self._m_depth.set(len(self.pending))
        if self.on_work is not None:
            self.on_work()

    # -- leases ------------------------------------------------------

    def touch_node(self, name: str, local: bool = False) -> Node:
        now = self.clock()
        node = self.nodes.get(name)
        if node is None:
            node = self.nodes[name] = Node(name, local, now)
            _log.info("node-join", node=name, local=local)
            self.telemetry.add_event("node-join", node=name, local=local)
        node.last_seen = now
        return node

    def claim(self, node: Node, limit: int = 1) -> List[Job]:
        """Lease up to ``limit`` queued jobs to ``node``, finalizing any
        canceled/expired entries encountered on the way."""
        claimed: List[Job] = []
        now = self.clock()
        while self.pending and len(claimed) < limit:
            job = self.jobs.get(self.pending.popleft())
            if job is None or job.state != JobState.QUEUED:
                continue  # canceled while queued
            if job.expired(now):
                self._finish(job, JobState.TIMEOUT,
                             error="deadline expired while queued")
                continue
            node.unstarted.add(job.id)
            node.lease_at[job.id] = now
            claimed.append(job)
        self._m_depth.set(len(self.pending))
        return claimed

    def steal(self, thief: Node) -> Optional[Job]:
        """Move one unstarted lease from the most-backlogged other node."""
        victim = max((n for n in self.nodes.values()
                      if n is not thief and n.unstarted),
                     key=lambda n: len(n.unstarted), default=None)
        if victim is None:
            return None
        for job_id in sorted(victim.unstarted):
            victim.unstarted.discard(job_id)
            victim.lease_at.pop(job_id, None)
            job = self.jobs.get(job_id)
            if job is None or job.state != JobState.QUEUED:
                continue
            thief.unstarted.add(job_id)
            thief.lease_at[job_id] = self.clock()
            self.metrics.counter("repro_cluster_steals_total").inc()
            _log.info("job-stolen", job_id=job_id, victim=victim.name,
                      thief=thief.name)
            self.telemetry.add_event("job-stolen", job_id=job_id,
                                     victim=victim.name, thief=thief.name)
            return job
        return None

    def start(self, node: Node, job_id: str) -> Tuple[Optional[Job], str]:
        """Turn ``node``'s lease into a running job: ``(job, "")`` when
        granted, else ``(None, reason)``."""
        job = self.jobs.get(job_id)
        if job is None or job_id not in node.unstarted:
            return None, "lease moved (stolen, reassigned, or unknown job)"
        node.unstarted.discard(job_id)
        now = self.clock()
        if job.state != JobState.QUEUED:
            node.lease_at.pop(job_id, None)
            return None, f"job is {job.state}"
        if job.expired(now):
            node.lease_at.pop(job_id, None)
            self._finish(job, JobState.TIMEOUT,
                         error="deadline expired while queued")
            return None, "job timed out"
        job.state = JobState.RUNNING
        job.started_at = now
        job.attempts += 1
        node.running.add(job_id)
        self._m_running.inc()
        trace = self.traced.get(job_id)
        if trace is not None:
            # submit -> first execution start = queue wait (includes any
            # lease hand-offs); crash retries open a second segment
            wall = self.wall()
            since = trace.get("last_wait", trace["submit_wall"])
            self.spans.record(
                "queue-wait", trace["span"].child(), cat=self.node,
                start_wall=since, duration=max(0.0, wall - since),
                parent_id=trace["span"].span_id, job_id=job_id,
                node=node.name, attempt=job.attempts)
            trace["last_wait"] = wall
        _log.info("job-start", job_id=job_id, node=node.name,
                  attempt=job.attempts, digest=job.digest[:12],
                  kind=job.payload.get("kind"))
        return job, ""

    def holds(self, name: str, job_id: str) -> Optional[Job]:
        """The job ``name`` may report on: it is running under that
        node's lease.  None for a stale report — the node was declared
        dead and its lease re-assigned, or the job finished another
        way."""
        node = self.touch_node(name)
        job = self.jobs.get(job_id)
        if job is None or job_id not in node.running \
                or job.state != JobState.RUNNING:
            return None
        return job

    def _release(self, name: str, job_id: str
                 ) -> Tuple[Node, Optional[Job]]:
        job = self.holds(name, job_id)
        node = self.nodes[name]
        if job is not None:
            node.running.discard(job_id)
            node.lease_at.pop(job_id, None)
            self._m_running.dec()
        return node, job

    def done(self, name: str, job_id: str, result: Dict[str, Any]) -> bool:
        """Settle a running job with its result; False = stale lease."""
        node, job = self._release(name, job_id)
        if job is None:
            return False
        node.done += 1
        self._finish(job, JobState.DONE, result=result)
        _log.info("job-done", job_id=job_id, node=name,
                  latency=round(job.latency() or 0.0, 4))
        return True

    def fail(self, name: str, job_id: str, kind: str = "error",
             error: str = "") -> Tuple[bool, Optional[float]]:
        """Settle a running job that did not produce a result:
        ``(accepted, retry delay)``.  Only ``crash`` retries; a delay
        means the shell owes a :meth:`requeue` after that many seconds."""
        node, job = self._release(name, job_id)
        if job is None:
            return False, None
        node.failed += 1
        _log.warning("job-fail", job_id=job_id, node=name, kind=kind,
                     error=error)
        delay = None
        if kind == "timeout":
            self._finish(job, JobState.TIMEOUT,
                         error=error or "deadline expired while running")
        elif kind == "crash":
            delay = self._handle_crash(job, error or "worker crashed")
        else:
            self._finish(job, JobState.FAILED, error=error or "job failed")
        return True, delay

    def settle(self, name: str, job: Job, outcome: str, value: Any,
               start_wall: float, duration: float) -> Optional[float]:
        """Report how a local executor's run of ``job`` ended (the
        :func:`~repro.service.execution.run_leased` classification) and
        record its ``execute`` span; returns :meth:`fail`'s delay."""
        delay = None
        if outcome == "done":
            self.done(name, job.id, value)
        else:
            _accepted, delay = self.fail(name, job.id, outcome, value)
        trace = self.traced.get(job.id)
        if trace is not None:
            self.spans.record(
                "execute", trace["span"].child(), cat="worker",
                start_wall=start_wall, duration=duration,
                parent_id=trace["span"].span_id, job_id=job.id,
                digest=job.digest, node=name, outcome=outcome,
                attempt=job.attempts)
        return delay

    def _handle_crash(self, job: Job, error: str) -> Optional[float]:
        if job.attempts > job.max_retries:
            self._finish(job, JobState.FAILED,
                         error=f"worker crashed {job.attempts} times "
                               f"(retries exhausted): {error}")
            return None
        self._m_retried.inc()
        job.state = JobState.QUEUED
        delay = self.retry_backoff * (2 ** (job.attempts - 1))
        remaining = job.remaining(self.clock())
        if remaining is not None:
            delay = min(delay, max(0.0, remaining))
        if delay > 0:
            return delay
        self.requeue(job.id)
        return None

    def requeue(self, job_id: str) -> None:
        """A crash-retry delay has passed: back to the front of the
        queue (unless the job was canceled meanwhile)."""
        job = self.jobs.get(job_id)
        if job is None or job.state != JobState.QUEUED:
            return
        if self.stopping:
            self._finish(job, JobState.FAILED,
                         error="service stopped during crash retry")
        else:
            self._enqueue(job_id, front=True)

    def cancel(self, job_id: str) -> Tuple[bool, str]:
        """Cancel a queued job.  Running/finished jobs are not touched:
        a busy worker cannot be interrupted selectively, and a finished
        job has nothing to cancel."""
        job = self.jobs.get(job_id)
        if job is None:
            return False, f"unknown job {job_id!r}"
        if job.state != JobState.QUEUED:
            return False, f"job is {job.state}, not queued"
        # drop any unstarted lease so a later start is refused
        for node in self.nodes.values():
            node.unstarted.discard(job_id)
            node.lease_at.pop(job_id, None)
        self._finish(job, JobState.CANCELED, error="canceled by client")
        return True, "canceled"

    # -- finishing ---------------------------------------------------

    def _finalize(self, job: Job, state: str,
                  result: Optional[Dict[str, Any]], error: str) -> None:
        """The one place a job becomes final."""
        job.finish(state, result=result, error=error, now=self.clock())
        self._m_completed.inc(state=state)
        trace = self.traced.get(job.id)
        if trace is not None:
            self._record_job_span(job, trace)
        if self.by_digest.get(job.digest) == job.id:
            del self.by_digest[job.digest]
        self.finished.append(job.id)
        if len(self.finished) > KEEP_FINISHED:
            old = self.finished.popleft()
            del self.jobs[old]
            self.traced.pop(old, None)
        if self.on_finish is not None:
            self.on_finish(job)

    def _record_job_span(self, job: Job, trace: Dict[str, Any]) -> None:
        """The whole-job span: submit to finish, child of the client's
        root context, parent of queue-wait/execute/cache spans."""
        self.spans.record(
            "job", trace["span"], cat=self.node,
            start_wall=trace["submit_wall"],
            duration=job.latency() or 0.0,
            parent_id=trace["root"].span_id,
            job_id=job.id, digest=job.digest, state=job.state,
            cached=job.cached, attempts=job.attempts)

    def _finish(self, job: Job, state: str,
                result: Optional[Dict[str, Any]] = None,
                error: str = "") -> None:
        """Finish a job that was queued or run (a cache answer skips the
        latency/phase/loop observations: nothing ran)."""
        self._finalize(job, state, result, error)
        self._m_latency.observe(job.latency() or 0.0)
        if result is not None:
            for phase, seconds in result.get("timings", {}).items():
                self.metrics.histogram(
                    f"repro_phase_{phase}_seconds",
                    f"wall clock of the {phase} phase").observe(seconds)
            count = result.get("parallel_count")
            if isinstance(count, int):
                self._m_loops_parallel.inc(count)
            for reason, n in result.get("serial_reasons", {}).items():
                self._m_loops_serial.inc(n, reason=reason)

    # -- node liveness -----------------------------------------------

    def heartbeat(self, name: str, request: Dict[str, Any]) -> bool:
        """Liveness plus the node's exactly-once metric/span stream;
        True when this heartbeat's delta was merged."""
        node = self.touch_node(name)
        info = request.get("info")
        if isinstance(info, dict):
            node.info = info
        boot = request.get("boot")
        if isinstance(boot, str) and boot and boot != node.boot:
            if node.boot is not None:
                # the node process restarted: its sequence counter is
                # back at zero, so accept its stream from scratch — a
                # replayed heartbeat from the *old* incarnation carries
                # the old boot id and never reaches this branch
                _log.info("node-reboot", node=name, boot=boot,
                          previous=node.boot)
                self.telemetry.add_event("node-restart", node=name,
                                         boot=boot, previous=node.boot)
                node.last_seq = 0
            node.boot = boot
        wall = request.get("wall")
        if isinstance(wall, (int, float)):
            # one clock-offset sample per heartbeat: the worker's wall
            # clock vs ours, biased by one-way delay — the ClockModel's
            # min-filter keeps the least-delayed sample
            self.clock_model.observe(name, float(wall), self.wall())
        seq = request.get("seq")
        delta = request.get("metrics")
        if not (isinstance(seq, int) and isinstance(delta, dict)
                and seq > node.last_seq):
            return False
        # exactly-once: deltas are cumulative per ship, tagged with a
        # monotonic sequence; replays (worker retrying a heartbeat it
        # never saw acked) never double-count.  Spans ride the same
        # sequence, so they inherit the same guarantee.
        obs_metrics.get_registry().merge(delta)
        spans = request.get("spans")
        if isinstance(spans, list) and spans:
            self.ingest_spans(spans)
        node.last_seq = seq
        return True

    def sweep(self, now: Optional[float] = None
              ) -> List[Tuple[str, float]]:
        """Declare remote nodes silent past ``heartbeat_timeout`` dead:
        their unstarted leases re-enter the queue, their running jobs
        take the crash-retry path.  Returns the ``(job id, delay)``
        retries the shell owes a :meth:`requeue`."""
        now = self.clock() if now is None else now
        retries: List[Tuple[str, float]] = []
        for name, node in list(self.nodes.items()):
            silent = now - node.last_seen
            if node.local or silent <= self.heartbeat_timeout:
                continue
            del self.nodes[name]
            if not node.unstarted and not node.running:
                continue  # silent but idle: just forget it (it can re-join)
            self.metrics.counter("repro_cluster_dead_nodes_total").inc()
            _log.warning("node-dead", node=name,
                         unstarted=len(node.unstarted),
                         running=len(node.running), silent=round(silent, 3))
            self.telemetry.add_event(
                "node-dead", node=name, unstarted=len(node.unstarted),
                running=len(node.running), silent=round(silent, 3))
            for job_id in sorted(node.unstarted):
                job = self.jobs.get(job_id)
                if job is not None and job.state == JobState.QUEUED:
                    self._enqueue(job_id, front=True)
            for job_id in sorted(node.running):
                job = self.jobs.get(job_id)
                if job is not None and job.state == JobState.RUNNING:
                    self._m_running.dec()
                    delay = self._handle_crash(
                        job, f"worker node {name} stopped heartbeating")
                    if delay is not None:
                        retries.append((job_id, delay))
        return retries

    def nodes_view(self) -> Dict[str, Dict[str, Any]]:
        """Per-node liveness and lease ages (the ``health`` op)."""
        now = self.clock()
        view = {}
        for name, node in sorted(self.nodes.items()):
            age = round(now - node.last_seen, 3)
            leases = {job_id: round(now - at, 3)
                      for job_id, at in sorted(node.lease_at.items())}
            view[name] = {
                "local": node.local,
                "alive": node.local or age <= self.heartbeat_timeout,
                "heartbeat_age": age,
                "last_heartbeat_age": age,
                "boot": node.boot,
                "unstarted": len(node.unstarted),
                "running": len(node.running),
                "leases": leases,
                "oldest_lease_age": max(leases.values(), default=None),
                "done": node.done,
                "failed": node.failed,
                "info": node.info,
            }
        return view

    # -- spans -------------------------------------------------------

    def ingest_spans(self, spans: List[Dict[str, Any]],
                     remote_wall: Optional[float] = None) -> None:
        """Accept spans recorded on another node's clock.

        ``remote_wall`` (the sender's clock at response time)
        contributes one offset sample per distinct span node, so the
        stitcher can rebase those lanes onto this tier's time.
        """
        if remote_wall is not None:
            local = self.wall()
            for node in {s.get("node") for s in spans
                         if isinstance(s, dict)}:
                if isinstance(node, str) and node:
                    self.clock_model.observe(node, float(remote_wall), local)
        self.span_store.add(spans)

    # -- the client op table -----------------------------------------

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Route one request through :attr:`ops`; returns the handler's
        response dict."""
        op = request.get("op")
        handler = self.ops.get(op) if isinstance(op, str) else None
        if handler is None:
            self._m_requests.inc(op="unknown")
            return error_response(
                f"unknown op {op!r}; expected {'/'.join(self.ops)}",
                code="bad-op")
        self._m_requests.inc(op=op)
        return handler(request)

    def lookup(self, request: Dict[str, Any]):
        job_id = request.get("job_id")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            return None, error_response(f"unknown job {job_id!r}",
                                        code="not-found")
        return job, None

    def op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job, err = self.lookup(request)
        return err if err else job_response(job)

    def op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job, err = self.lookup(request)
        return err if err else self.result_response(job, request)

    @staticmethod
    def result_response(job: Job, request: Dict[str, Any]
                        ) -> Dict[str, Any]:
        """The ``result`` answer for ``job`` as it stands (a shell
        honours ``wait`` between the lookup and this)."""
        if job.state == JobState.DONE:
            return job_response(
                job, include_result=True,
                include_trace=bool(request.get("include_trace")))
        if job.state in FINAL_STATES:
            return error_response(
                f"job {job.id} finished as {job.state}: {job.error}",
                code=job.state)
        return error_response(f"job {job.id} is still {job.state}",
                              code="not-ready")

    def op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job, err = self.lookup(request)
        if err:
            return err
        ok, reason = self.cancel(job.id)
        response = job_response(job)
        response["canceled"] = ok
        response["detail"] = reason
        return response

    def op_health(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The keys both tiers report; shells add their own."""
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {"ok": True, "tier": self.tier, "uptime": self.uptime(),
                "draining": self.draining,
                "queue_depth": len(self.pending),
                "queue_capacity": self.capacity,
                "jobs_by_state": states}

    def _exported_metrics(self) -> MetricsRegistry:
        """The ledger's own registry unioned with the process-default one.

        Pipeline instrumentation from finished jobs (dependence tests,
        cache lookups, …) is merged into the process-default registry;
        the ledger keeps its service metrics in a private registry so
        concurrent servers in one process (tests) don't share counts.
        The metrics op must expose both.
        """
        self._m_uptime.set(self.uptime())
        combined = MetricsRegistry()
        combined.merge(self.metrics.export())
        combined.merge(obs_metrics.get_registry().export())
        return combined

    def op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fmt = request.get("format", "json")
        if fmt == "prometheus":
            return {"ok": True, "format": "prometheus",
                    "text": self._exported_metrics().to_prometheus()}
        if fmt != "json":
            return error_response(f"unknown metrics format {fmt!r}",
                                  code="bad-request")
        return {"ok": True, "format": "json",
                "metrics": self._exported_metrics().to_json()}

    def snapshot_telemetry(self, health: Dict[str, Any]) -> Dict[str, Any]:
        """One merged metric+health snapshot (also drains this tier's
        spans into the store so ``trace-export`` sees them)."""
        self.span_store.add(self.spans.drain())
        health.pop("ok", None)
        return self.telemetry.add_snapshot(
            self._exported_metrics().export(), health)

    def op_telemetry(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.telemetry_frame(request, self.op_health({}))

    def telemetry_frame(self, request: Dict[str, Any],
                        health: Dict[str, Any]) -> Dict[str, Any]:
        """The ``telemetry`` answer around a ``health`` answer (a shell
        passes its own, richer one)."""
        snapshot = self.snapshot_telemetry(health)
        since = request.get("events_since")
        events = self.telemetry.events_since(
            since if isinstance(since, int) else 0)
        return {"ok": True, "tier": self.tier, "run_id": self.run_id,
                "snapshot": snapshot, "events": events,
                "event_seq": self.telemetry.event_seq(),
                "spans_stored": len(self.span_store)}

    def op_trace_export(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Everything ``repro trace-collect`` needs to stitch one run:
        all stored spans (every tier), per-node clock offsets, and the
        decision records of finished traced jobs stamped with the span
        ids that produced them."""
        from repro.trace.tracer import Tracer
        self.span_store.add(self.spans.drain())
        trace_id = request.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            return error_response("'trace_id' must be a string",
                                  code="bad-request")
        seen: set = set()
        decisions: List[Dict[str, Any]] = []
        site_decisions: List[Dict[str, Any]] = []
        for job_id, trace in self.traced.items():
            job = self.jobs[job_id]
            if not isinstance(job.result, dict):
                continue
            if trace_id and trace["span"].trace_id != trace_id:
                continue
            export = job.result.get("trace")
            if not isinstance(export, dict):
                continue
            link = {"job_id": job.id, "digest": job.digest,
                    "span_id": trace["span"].span_id,
                    "trace_id": trace["span"].trace_id}
            for kind, field, out in (
                    ("loop", "decisions", decisions),
                    ("site", "site_decisions", site_decisions)):
                for d in export.get(field) or ():
                    if not isinstance(d, dict):
                        continue
                    # same identity rule as Tracer.merge: a crash-retried
                    # job's re-exported decisions count exactly once
                    key = Tracer._decision_key(job.digest, kind, d)
                    if key not in seen:
                        seen.add(key)
                        out.append({**d, **link})
        return {"ok": True, "run_id": self.run_id,
                "spans": self.span_store.spans(trace_id),
                "clock_offsets": self.clock_model.to_dict(),
                "trace_ids": self.span_store.trace_ids(),
                "decisions": decisions,
                "site_decisions": site_decisions,
                "dropped": self.span_store.dropped + self.spans.dropped}

    def op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        drain = bool(request.get("drain"))
        if drain:
            # reject new submissions immediately; the shell's stop then
            # waits for the in-flight jobs
            self.draining = True
        return {"ok": True, "stopping": True, "draining": drain,
                "_shutdown": True, "_drain": drain,
                "_drain_timeout": request.get("drain_timeout")}
