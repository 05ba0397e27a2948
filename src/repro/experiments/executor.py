"""One process pool, :class:`WorkerPool`, and its two callers.

The pool keeps one long-lived worker process per slot on its own duplex
pipe; a late or dead worker is killed and replaced without touching the
other workers' tasks.  The service's job dispatchers call
:meth:`WorkerPool.run` directly, and :func:`run_tasks` maps a function
over the evaluation protocol's independent ``(benchmark x config x
machine)`` work units.  Task lists are built up front in a deterministic
order and results come back in task order; workers receive only
picklable task descriptors and return only picklable summaries (origin
sets, line counts, tuning results), never live ASTs, so the assembled
artifacts are byte-identical to a serial run.  Every task, pooled or
inline, runs under :func:`observed`, which hands the worker's
``MetricsRegistry.drain()`` back beside the result.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
from functools import partial
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple, TypeVar)

from repro.errors import JobsError
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.trace import NULL_TRACER, Tracer

_log = obs_logging.get_logger("repro.executor")

T = TypeVar("T")
R = TypeVar("R")

#: environment variable consulted when no explicit job count is given
JOBS_ENV = "REPRO_JOBS"

#: set inside pool workers so nested run_tasks calls stay serial
_IN_WORKER_ENV = "_REPRO_POOL_WORKER"


def in_worker() -> bool:
    """True inside a pool worker process."""
    return bool(os.environ.get(_IN_WORKER_ENV))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``REPRO_JOBS`` > 1 (serial).

    ``jobs == 0`` requests one worker per CPU.  A non-integer
    ``REPRO_JOBS`` or a negative count (either path) raises
    :class:`JobsError` with an actionable message rather than surfacing a
    bare traceback.  Inside a pool worker the answer is always 1 so
    workers never fork nested pools.
    """
    if in_worker():
        return 1
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise JobsError(
                f"{JOBS_ENV}={raw!r} is not an integer; use a worker "
                f"count >= 1, or 0 for one worker per CPU") from None
    if jobs < 0:
        raise JobsError(
            f"job count must be >= 0, got {jobs} "
            f"(0 means one worker per CPU)")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _mark_worker() -> None:  # pragma: no cover - runs in child processes
    """Start a pool worker: nested pools stay serial, and the counts a
    forked worker inherits from its parent are drained away, so each
    later drain holds only this worker's own observations."""
    os.environ[_IN_WORKER_ENV] = "1"
    obs_metrics.get_registry().drain()


def _observed_call(fn: Callable[[T], R], parent: int, ctx: Dict[str, object],
                   log_mode: str, log_level: str, task: T):
    """One task under its caller's observability, wherever it runs.

    Sets the caller's correlation context (and, in another process, its
    log configuration: CLI flags do not survive the process boundary),
    times the task into ``repro_executor_task_seconds``, and returns
    ``(result, metrics)``.  In a worker process ``metrics`` is the
    worker registry's :meth:`~repro.obs.metrics.MetricsRegistry.drain`
    for the caller to merge; run inline in the caller's own process it
    is None, because the observations already landed there.
    """
    inline = os.getpid() == parent
    if not inline:
        obs_logging.configure(mode=log_mode, level=log_level)
    registry = obs_metrics.get_registry()
    hist = registry.histogram("repro_executor_task_seconds",
                              "per-task wall-clock in executor workers")
    with obs_logging.log_context(**ctx), hist.time():
        result = fn(task)
    return result, None if inline else registry.drain()


def observed(fn: Callable[[T], R]) -> Callable[[T], Tuple[R, Any]]:
    """``fn`` wrapped by :func:`_observed_call` for a worker of this
    process, carrying the current log context and configuration."""
    return partial(_observed_call, fn, os.getpid(),
                   obs_logging.current_context(),
                   obs_logging.configured_mode(),
                   obs_logging.configured_level())


def _pool_map(pool: "WorkerPool", call: Callable[[T], R],
              tasks: List[T]) -> Optional[List[R]]:
    """``call`` over ``tasks`` on one dispatcher thread per worker, in
    task order, or None if ``call`` does not pickle or no worker process
    starts.  After a failure no further task starts; once the running
    ones return, the lowest-index failure is raised."""
    try:
        pickle.dumps(call, pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return None
    pool.run(int, 0)  # starts a first worker, or turns the pool inline
    if pool.inline:
        return None
    results: List[Any] = [None] * len(tasks)
    failures: Dict[int, BaseException] = {}
    lock = threading.Lock()
    order = iter(range(len(tasks)))

    def dispatch() -> None:
        while True:
            with lock:
                index = None if failures else next(order, None)
            if index is None:
                return
            try:
                results[index] = pool.run(call, tasks[index])
            except BaseException as exc:
                with lock:
                    failures[index] = exc

    threads = [threading.Thread(target=dispatch, daemon=True)
               for _ in range(pool.workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def run_tasks(fn: Callable[[T], R], tasks: Iterable[T],
              jobs: Optional[int] = None,
              tracer: Optional[Tracer] = None,
              label: str = "tasks") -> List[R]:
    """Map ``fn`` over ``tasks``, preserving task order in the result.

    With an effective worker count of 1 (or a single task) the map runs
    serially in-process; otherwise on a :class:`WorkerPool` of
    ``min(jobs, len(tasks))`` workers.  A task's exception propagates
    once, lowest task index first, and a worker death raises
    :class:`WorkerCrashError`: nothing is rerun.  If the work cannot
    reach a worker, the batch falls back to the serial loop, and
    ``tracer`` records that as an instant beside its span over the
    batch.  Workers carry the caller's log context; their drained
    metrics are merged once the whole batch has succeeded, so counter
    values are identical for any ``-j``.
    """
    tracer = tracer or NULL_TRACER
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    batches = obs_metrics.counter(
        "repro_executor_batches_total",
        "task batches by execution mode (serial/pool/fallback)")
    obs_metrics.counter("repro_executor_tasks_total",
                        "tasks executed per batch label").inc(
                            len(tasks), label=label)
    pending = obs_metrics.gauge("repro_executor_pending_tasks",
                                "tasks submitted but not yet finished")
    with tracer.span(f"run_tasks {label}", cat="executor",
                     tasks=len(tasks), jobs=jobs):
        mode = "serial"
        if jobs > 1 and len(tasks) > 1:
            _log.debug("batch-start", label=label, tasks=len(tasks),
                       jobs=jobs)
            workers = min(jobs, len(tasks))
            obs_metrics.gauge("repro_executor_workers",
                              "worker processes in the most recent pool "
                              "batch").set(workers)
            pool = WorkerPool(workers)
            pending.inc(len(tasks))
            try:
                pairs = _pool_map(pool, observed(fn), tasks)
            finally:
                pool.shutdown()
                pending.set(0)
            if pairs is not None:
                batches.inc(mode="pool")
                registry = obs_metrics.get_registry()
                for _result, metrics in pairs:
                    registry.merge(metrics)
                return [result for result, _metrics in pairs]
            mode = "fallback"
            tracer.instant("serial-fallback", cat="executor",
                           tasks=len(tasks), jobs=jobs)
            _log.warning("serial-fallback", label=label, tasks=len(tasks),
                         jobs=jobs)
        batches.inc(mode=mode)
        call = observed(fn)  # in-process: metrics land in this registry
        return [call(task)[0] for task in tasks]


def merge_task_traces(tracer: Optional[Tracer],
                      exports: Iterable[Optional[Dict[str, Any]]]) -> None:
    """Fold worker-local trace exports back into the parent trace.

    ``exports`` follows :func:`run_tasks` result order (one entry per
    task, ``None`` where the task was not traced).  Each export lands on
    the lane of the worker process that really ran it
    (``<label>-worker-<pid>``); tasks executed in-process (serial runs,
    fallback) land on the parent's own lane.
    """
    if tracer is None or not tracer.enabled:
        return
    for exported in exports:
        pid = (exported or {}).get("pid")
        tracer.merge(exported, node=tracer.label if pid == os.getpid()
                     else f"{tracer.label}-worker-{pid}")


# ---------------------------------------------------------------------------
# the worker pool (run_tasks batches and service jobs)
# ---------------------------------------------------------------------------

class WorkerCrashError(RuntimeError):
    """A pool worker died mid-task (killed, OOM, segfault).

    The task itself may be fine — callers that know their tasks are pure
    (the service's job dispatcher) retry on this.
    """


class WorkerTimeout(RuntimeError):
    """A task exceeded its deadline; its worker was killed."""


def _serve_tasks(conn) -> None:  # pragma: no cover - runs in child processes
    """A pool worker's loop: receive ``(fn, arg)``, answer ``(ok, value)``.

    ``value`` is the result, or the exception raised by ``fn`` (or by
    loading the task).  A reply that cannot be pickled is replaced by a
    picklable error naming it, so the caller sees an error and this
    worker stays in service.  The loop ends when the parent closes its
    end (or kills the worker).  Signal handlers a forked worker
    inherits from its server are dropped: SIGTERM kills a worker, and
    Ctrl-C is for the parent, which then stops its pool.
    """
    _mark_worker()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            fn, arg = pickle.loads(data)
            reply = (True, fn(arg))
        except BaseException as exc:
            reply = (False, exc)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            what = "result" if reply[0] else f"exception {reply[1]!r}"
            data = pickle.dumps((False, RuntimeError(
                f"task {what} could not be pickled: "
                f"{type(exc).__name__}: {exc}")))
        try:
            conn.send_bytes(data)
        except OSError:
            return  # the parent let go of this worker


class _Worker:
    """One worker process and the parent's end of its duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn

    def stop(self) -> None:
        """Kill the process if it still runs, reap it, close the pipe."""
        self.process.kill()
        self.process.join()
        self.conn.close()


class WorkerPool:
    """Up to ``workers`` long-lived worker processes, one task each.

    Each worker is a dedicated process on its own duplex pipe, started
    on first demand; a task costs one send and one receive on it:

    * ``run(fn, arg, timeout=...)`` checks out an idle worker and blocks
      the calling thread until the task finishes — concurrency comes
      from several dispatcher threads sharing one pool, and the wait
      for a free worker counts against ``timeout``;
    * a worker death surfaces as :class:`WorkerCrashError` to the one
      caller whose task it was running; the slot is refilled lazily;
    * a deadline miss surfaces as :class:`WorkerTimeout`, and the late
      worker is killed so it stops spending CPU on an abandoned task;
    * if worker processes cannot be started (sandboxes without ``fork``
      or pipes) the pool degrades to inline execution in the calling
      thread — deadlines then apply only while a job is still queued,
      and a task can signal a simulated crash by raising
      :class:`WorkerCrashError` itself (the retry path stays testable).
    """

    def __init__(self, workers: int = 1, inline: Optional[bool] = None):
        self.workers = max(1, workers)
        self._cond = threading.Condition()
        self._live: Set[_Worker] = set()
        self._idle: List[_Worker] = []
        if inline is None:
            inline = in_worker()  # never nest pools
        self._inline = inline

    @property
    def inline(self) -> bool:
        return self._inline

    @staticmethod
    def _spawn() -> _Worker:
        conn, child = multiprocessing.Pipe()
        try:
            process = multiprocessing.Process(
                target=_serve_tasks, args=(child,), daemon=True)
            process.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child.close()
        return _Worker(process, conn)

    def _checkout(self, deadline: Optional[float],
                  timeout: Optional[float]) -> Optional[_Worker]:
        """An idle worker, a new one if a slot is free, or None once the
        pool has fallen back to inline execution."""
        with self._cond:
            while not self._idle and len(self._live) >= self.workers:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise WorkerTimeout(
                        f"task waited out its {timeout:.3g}s deadline "
                        f"for a free worker")
                self._cond.wait(remaining)
            if self._idle:
                return self._idle.pop()
            # started under the lock: a child forked while another
            # worker's child end is still open here would hold that end
            # and hide the other worker's death
            try:
                worker = self._spawn()
            except (OSError, ImportError, ValueError):
                self._inline = True
                return None
            self._live.add(worker)
            return worker

    def _checkin(self, worker: _Worker) -> None:
        with self._cond:
            if worker in self._live:
                self._idle.append(worker)
                self._cond.notify()
                return
        worker.stop()  # shutdown() let go of it while it was busy

    def _discard(self, worker: _Worker) -> None:
        """Kill a crashed or late worker; its slot is refilled lazily."""
        worker.stop()
        with self._cond:
            self._live.discard(worker)
            self._cond.notify()

    def run(self, fn: Callable[[T], R], arg: T,
            timeout: Optional[float] = None) -> R:
        """Execute ``fn(arg)``, blocking until done or ``timeout`` seconds.

        Raises :class:`WorkerTimeout` on deadline miss and
        :class:`WorkerCrashError` when the worker process dies; any
        exception raised by ``fn`` itself propagates unchanged.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        worker = None if self._inline else self._checkout(deadline, timeout)
        if worker is None:
            return fn(arg)  # inline mode; WorkerCrashError may propagate
        try:
            task = pickle.dumps((fn, arg), pickle.HIGHEST_PROTOCOL)
        except BaseException:
            self._checkin(worker)
            raise
        try:
            worker.conn.send_bytes(task)
            if deadline is not None and not worker.conn.poll(
                    max(0.0, deadline - time.monotonic())):
                self._discard(worker)
                raise WorkerTimeout(f"task exceeded its {timeout:.3g}s "
                                    f"deadline")
            data = worker.conn.recv_bytes()
        except (OSError, EOFError):
            self._discard(worker)
            raise WorkerCrashError("worker process died mid-task") from None
        self._checkin(worker)
        try:
            ok, value = pickle.loads(data)
        except Exception as exc:
            raise RuntimeError(f"task reply could not be unpickled: "
                               f"{type(exc).__name__}: {exc}") from exc
        if ok:
            return value
        raise value

    def shutdown(self) -> None:
        """Stop every worker, idle or busy; the caller of a busy one gets
        :class:`WorkerCrashError`.  A later ``run`` starts new workers."""
        with self._cond:
            idle, self._idle = self._idle, []
            busy = [w for w in self._live if w not in idle]
            self._live.clear()
            self._cond.notify_all()
        for worker in idle:
            worker.stop()
        for worker in busy:
            # its caller owns the pipe and closes it on the crash
            worker.process.kill()
            worker.process.join()
