"""Tests for the process pool and its experiment fan-out, the
parse/program caches, the dependence-query memo table, and the
per-phase profiling timers.

The load-bearing guarantees: rendered artifacts are byte-identical
between serial and parallel runs and between cold and warm caches; a
failing task raises once in the caller and is never rerun, a dead
worker raises ``WorkerCrashError`` without taking the caller down, and
the batch runs serially only when no worker can take the work.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.affine import extract
from repro.analysis.dependence import DependenceTester, LoopCtx
from repro.experiments import figure20, pipeline
from repro.experiments.executor import (JOBS_ENV, _IN_WORKER_ENV,
                                        JobsError, WorkerCrashError,
                                        WorkerPool, WorkerTimeout,
                                        resolve_jobs, run_tasks)
from repro.experiments.figure20 import figure20_all, render_figure20
from repro.experiments.reporting import render_profile
from repro.experiments.table2 import render_table2, table2_rows
from repro.fortran.parser import parse_expression
from repro.obs import metrics as obs_metrics
from repro.perfect import get_benchmark
from repro.perfect import suite
from repro.polaris import Polaris
from repro.program import Program
from repro.trace import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _square(x):
    return x * x


def _clear_caches() -> None:
    suite.clear_program_cache()
    pipeline.clear_base_cache()
    figure20.clear_pipeline_cache()


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert run_tasks(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        tasks = list(range(20))
        assert run_tasks(_square, tasks, jobs=2) == [x * x for x in tasks]

    def test_unpicklable_fn_falls_back_to_serial(self):
        # a lambda cannot cross a process boundary; the executor must
        # still produce the right answers
        assert run_tasks(lambda x: x + 1, [1, 2, 3], jobs=2) == [2, 3, 4]

    def test_empty_tasks(self):
        assert run_tasks(_square, [], jobs=4) == []


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(5) == 5

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_garbage_env_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(JobsError, match="not an integer"):
            resolve_jobs(None)

    def test_negative_env_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "-2")
        with pytest.raises(JobsError, match=">= 0"):
            resolve_jobs(None)

    def test_negative_argument_is_a_clear_error(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        with pytest.raises(JobsError, match=">= 0"):
            resolve_jobs(-3)

    def test_no_nested_pools_inside_workers(self, monkeypatch):
        monkeypatch.setenv(_IN_WORKER_ENV, "1")
        assert resolve_jobs(8) == 1


def _sleep(seconds):
    import time
    time.sleep(seconds)
    return seconds


def _kill_self(_):
    import os
    import signal
    os.kill(os.getpid(), signal.SIGKILL)


def _crash_inline(_):
    raise WorkerCrashError("simulated")


@pytest.fixture()
def pool_of():
    """``pool_of(n)`` makes a process pool of ``n`` workers (skipping
    where processes cannot start) and shuts it down after the test."""
    pools = []

    def make(workers):
        pool = WorkerPool(workers=workers, inline=False)
        pools.append(pool)
        if pool.run(_square, 1) != 1 or pool.inline:
            pytest.skip("process pool unavailable in this sandbox")
        return pool
    yield make
    for pool in pools:
        pool.shutdown()


class TestWorkerPool:
    def test_inline_mode_runs_in_process(self):
        pool = WorkerPool(workers=2, inline=True)
        assert pool.run(_square, 7) == 49
        pool.shutdown()

    def test_inline_crash_propagates(self):
        pool = WorkerPool(workers=1, inline=True)
        with pytest.raises(WorkerCrashError):
            pool.run(_crash_inline, None)
        pool.shutdown()

    @pytest.fixture()
    def process_pool(self, pool_of):
        return pool_of(2)

    def test_process_mode_runs_in_worker(self, process_pool):
        assert process_pool.run(_square, 6) == 36

    def test_killed_worker_raises_and_pool_recovers(self, process_pool):
        with pytest.raises(WorkerCrashError):
            process_pool.run(_kill_self, None)
        # the dead worker is replaced: the next task succeeds
        assert process_pool.run(_square, 5) == 25

    def test_timeout_raises_and_pool_recovers(self, process_pool):
        with pytest.raises(WorkerTimeout):
            process_pool.run(_sleep, 1.2, timeout=0.2)
        assert process_pool.run(_square, 4) == 16

    def test_task_exception_propagates_unwrapped(self, process_pool):
        with pytest.raises(ZeroDivisionError):
            process_pool.run(_divzero, 1)


def _divzero(x):
    return x / 0


def _spin(seconds):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass
    return seconds


def _pid(_):
    return os.getpid()


def _unpicklable_result(_):
    return threading.Lock()


class _LockedError(Exception):
    def __init__(self):
        super().__init__("carries a lock")
        self.lock = threading.Lock()


def _unpicklable_exception(_):
    raise _LockedError()


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from ``args`` on the other side."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _unloadable_exception(_):
    raise _TwoArgError(1, 2)


def _in_thread(fn):
    """Run ``fn()`` on a thread; the returned box gets ``value`` or
    ``error`` once the thread is joined."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:
            box["error"] = exc
    thread = threading.Thread(target=target)
    thread.start()
    box["thread"] = thread
    return box


def _own_children(before):
    return set(multiprocessing.active_children()) - before


class TestWorkerPoolIsolation:
    """Each worker is its own process on its own pipe: a late or dead
    worker takes down its own job and nothing else."""

    def test_deadline_miss_kills_the_late_worker(self, pool_of):
        before = set(multiprocessing.active_children())
        pool = pool_of(1)
        with pytest.raises(WorkerTimeout):
            pool.run(_spin, 3.0, timeout=0.3)
        assert len(_own_children(before)) <= pool.workers
        assert pool.run(_square, 4) == 16
        assert len(_own_children(before)) <= pool.workers

    def test_a_crash_fails_only_its_own_job(self, pool_of):
        pool = pool_of(2)
        slow = _in_thread(lambda: pool.run(_sleep, 1.0, timeout=30))
        time.sleep(0.2)  # the slow job is on its worker
        with pytest.raises(WorkerCrashError):
            pool.run(_kill_self, None, timeout=30)
        slow["thread"].join()
        assert slow.get("value") == 1.0, slow.get("error")

    def test_worker_is_reused_between_tasks(self, pool_of):
        pool = pool_of(1)
        assert pool.run(_pid, None) == pool.run(_pid, None) != os.getpid()

    def test_unpicklable_result_is_an_error(self, pool_of):
        pool = pool_of(1)
        pid = pool.run(_pid, None)
        with pytest.raises(RuntimeError, match="could not be pickled") \
                as info:
            pool.run(_unpicklable_result, None, timeout=30)
        assert not isinstance(info.value, WorkerCrashError)
        assert pool.run(_pid, None) == pid  # the same worker, still usable

    def test_unpicklable_exception_is_an_error(self, pool_of):
        pool = pool_of(1)
        pid = pool.run(_pid, None)
        with pytest.raises(RuntimeError, match="_LockedError"):
            pool.run(_unpicklable_exception, None, timeout=30)
        assert pool.run(_pid, None) == pid

    def test_unloadable_exception_is_an_error(self, pool_of):
        pool = pool_of(1)
        pid = pool.run(_pid, None)
        with pytest.raises(RuntimeError, match="could not be unpickled"):
            pool.run(_unloadable_exception, None, timeout=30)
        assert pool.run(_pid, None) == pid

    def test_unpicklable_task_is_an_error(self, pool_of):
        pool = pool_of(1)
        pid = pool.run(_pid, None)
        with pytest.raises(Exception) as info:
            pool.run(_square, lambda: None, timeout=30)
        assert not isinstance(info.value, (WorkerCrashError, WorkerTimeout))
        assert pool.run(_pid, None) == pid

    def test_wait_for_a_free_worker_counts_against_timeout(self, pool_of):
        pool = pool_of(1)
        slow = _in_thread(lambda: pool.run(_sleep, 1.0, timeout=30))
        time.sleep(0.2)  # the only worker is busy
        t0 = time.monotonic()
        with pytest.raises(WorkerTimeout):
            pool.run(_square, 3, timeout=0.3)
        assert time.monotonic() - t0 < 0.8
        slow["thread"].join()
        assert slow.get("value") == 1.0, slow.get("error")

    def test_shutdown_stops_idle_workers(self, pool_of):
        before = set(multiprocessing.active_children())
        pool = pool_of(2)
        pool.shutdown()
        assert not _own_children(before)
        assert pool.run(_square, 2) == 4  # a later run starts afresh

    def test_shutdown_stops_busy_workers(self, pool_of):
        before = set(multiprocessing.active_children())
        pool = pool_of(2)
        busy = _in_thread(lambda: pool.run(_sleep, 30.0, timeout=60))
        time.sleep(0.2)
        t0 = time.monotonic()
        pool.shutdown()
        busy["thread"].join(10)
        assert not _own_children(before)
        assert isinstance(busy.get("error"), WorkerCrashError)
        assert time.monotonic() - t0 < 10


def _log_and_raise(args):
    """Append ``pid index`` to ``path``; raise ``error`` on index 3."""
    path, index, error = args
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()} {index}\n")
    if index == 3:
        raise error(f"task {index}")
    return index


_INTERVALS = []


def _record_interval(x):
    start = time.monotonic()
    time.sleep(0.005)
    _INTERVALS.append((os.getpid(), threading.get_ident(), x, start,
                       time.monotonic()))
    return x * x


def _fallbacks():
    return obs_metrics.counter("repro_executor_batches_total").value(
        mode="fallback")


class TestRunTasksFailures:
    """A task's failure surfaces once in the caller; only work that
    cannot reach a worker runs serially, in the calling thread."""

    @pytest.mark.parametrize("error", [TypeError, OSError])
    def test_task_exception_raises_once(self, pool_of, tmp_path, error):
        pool_of(1)  # skips where worker processes cannot start
        path = tmp_path / "ran.txt"
        before = _fallbacks()
        with pytest.raises(error, match="task 3"):
            run_tasks(_log_and_raise,
                      [(str(path), i, error) for i in range(6)], jobs=2)
        ran = [line.split() for line in path.read_text().splitlines()]
        indexes = [int(index) for _pid, index in ran]
        assert 3 in indexes
        assert len(indexes) == len(set(indexes)), ran
        assert str(os.getpid()) not in {pid for pid, _index in ran}
        assert _fallbacks() == before

    def test_crashing_worker_leaves_the_caller_alive(self, pool_of):
        pool_of(1)
        code = ("from repro.experiments.executor import run_tasks\n"
                "from tests.experiments.test_executor import _kill_self\n"
                "try:\n"
                "    run_tasks(_kill_self, range(4), jobs=2)\n"
                "except Exception as exc:\n"
                "    print(type(exc).__name__)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "WorkerCrashError" in proc.stdout

    def test_no_worker_starts_falls_back_to_serial(self, monkeypatch):
        def no_process():
            raise OSError("no processes here")
        monkeypatch.setattr(WorkerPool, "_spawn", staticmethod(no_process))
        tracer = Tracer()
        before = _fallbacks()
        assert run_tasks(_square, range(8), jobs=2, tracer=tracer) \
            == [x * x for x in range(8)]
        assert _fallbacks() == before + 1
        assert [s["name"] for s in tracer.spans()
                if s["name"] == "serial-fallback"] == ["serial-fallback"]

        _INTERVALS.clear()
        assert run_tasks(_record_interval, range(8), jobs=2) \
            == [x * x for x in range(8)]
        assert sorted(x for _pid, _tid, x, _s, _e in _INTERVALS) \
            == list(range(8))
        assert {(pid, tid) for pid, tid, _x, _s, _e in _INTERVALS} \
            == {(os.getpid(), threading.get_ident())}
        spans = sorted((start, end) for *_ids, start, end in _INTERVALS)
        for (_s0, end), (start, _e1) in zip(spans, spans[1:]):
            assert end <= start, "two tasks ran at once in the caller"


BENCHES = ("adm", "qcd")


class TestTable2Equivalence:
    def _render(self, **kwargs):
        bs = [get_benchmark(n) for n in BENCHES]
        return render_table2(table2_rows(benchmarks=bs, **kwargs))

    def test_parallel_matches_serial(self):
        assert self._render(jobs=1) == self._render(jobs=2)

    def test_cold_cache_matches_warm_cache(self):
        _clear_caches()
        cold = self._render()
        warm = self._render()
        assert cold == warm
        assert "TABLE II" in cold and "TOTAL" in cold

    def test_rows_carry_phase_timings(self):
        _clear_caches()
        rows = table2_rows(benchmarks=[get_benchmark("adm")])
        assert rows[0].timings
        for phase in ("parse", "clone", "normalize", "summaries",
                      "dependence", "inline", "reverse"):
            assert rows[0].timings.get(phase, 0.0) >= 0.0
        # the per-configuration clone is booked, in its place
        assert {"clone", "dependence"} <= set(rows[0].timings)
        profile = render_profile(rows[0].timings)
        assert profile.index("parse") < profile.index("clone") \
            < profile.index("normalize")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_row_timings_equal_merge_of_worker_outcomes(self, jobs):
        # aggregation audit: every phase second a worker reported must
        # appear in its row exactly once — nothing dropped, nothing
        # double-counted — regardless of worker count
        from repro.experiments.pipeline import CONFIGS
        from repro.experiments.table2 import table2_outcomes
        from repro.polaris.report import merge_timings
        _clear_caches()
        benchmarks = [get_benchmark(n) for n in BENCHES]
        rows, outcomes = table2_outcomes(benchmarks=benchmarks, jobs=jobs)
        assert len(outcomes) == len(benchmarks) * len(CONFIGS)
        for i, row in enumerate(rows):
            expected = {}
            for outcome in outcomes[i * len(CONFIGS):(i + 1) * len(CONFIGS)]:
                merge_timings(expected, outcome.timings)
            assert set(row.timings) == set(expected)
            for phase, seconds in expected.items():
                assert row.timings[phase] == pytest.approx(seconds,
                                                           abs=1e-9), \
                    f"{row.benchmark}/{phase} (jobs={jobs})"


class TestFigure20Equivalence:
    def _render(self, **kwargs):
        bs = [get_benchmark(n) for n in BENCHES]
        return render_figure20(figure20_all(benchmarks=bs, **kwargs))

    def test_parallel_matches_serial(self):
        serial = self._render(jobs=1)
        figure20.clear_pipeline_cache()
        parallel = self._render(jobs=2)
        assert serial == parallel

    def test_cold_cache_matches_warm_cache(self):
        _clear_caches()
        cold = self._render()
        warm = self._render()
        assert cold == warm


class TestProgramCache:
    def test_cached_parse_is_cloned_not_shared(self):
        bench = get_benchmark("adm")
        p1 = bench.program()
        p2 = bench.program()
        assert p1 is not p2
        assert p1.units[0] is not p2.units[0]
        # mutating one copy must not leak into the next
        p1.units[0].body.clear()
        p3 = bench.program()
        assert p3.units[0].body

    def test_matches_uncached_parse(self):
        bench = get_benchmark("qcd")
        cached = bench.program().unparse()
        fresh = Program.from_sources(dict(bench.sources),
                                     bench.name).unparse()
        assert cached == fresh

    def test_digest_tracks_content(self):
        bench = get_benchmark("qcd")
        other = get_benchmark("adm")
        assert bench.digest() != other.digest()
        assert bench.digest() == get_benchmark("qcd").digest()


class TestDependenceMemo:
    def _query(self):
        loops = [LoopCtx("I", 1, 10)]
        a = [extract(parse_expression("I"), ["I"])]
        return a, loops, {"I": "<"}

    def test_repeat_query_hits_memo(self):
        a, loops, dirs = self._query()
        t = DependenceTester()
        first = t.may_depend(a, a, loops, dirs)
        second = t.may_depend(a, a, loops, dirs)
        assert first == second is False
        assert t.stats.cache_hits == 1
        # the unique query was counted exactly once
        assert t.stats.unique_queries() == 1

    def test_distinct_queries_not_conflated(self):
        a, loops, dirs = self._query()
        t = DependenceTester()
        assert not t.may_depend(a, a, loops, dirs)
        # same subscripts, '=' direction: same element, dependent
        assert t.may_depend(a, a, loops, {"I": "="})
        assert t.stats.cache_hits == 0
        assert t.stats.unique_queries() == 2

    def test_memo_is_per_tester(self):
        a, loops, dirs = self._query()
        t1 = DependenceTester()
        t2 = DependenceTester(use_banerjee=False)
        assert not t1.may_depend(a, a, loops, dirs)
        # the GCD-only tester cannot disprove this strong-SIV query
        assert t2.may_depend(a, a, loops, dirs)


class TestPolarisTimings:
    SRC = ("      PROGRAM P\n"
           "      COMMON /D/ A(100)\n"
           "      DO 10 I = 1, 100\n"
           "        A(I) = I*2.0\n"
           "   10 CONTINUE\n"
           "      END\n")

    def test_driver_records_phase_timings(self):
        report = Polaris().run(Program.from_source(self.SRC))
        for phase in ("normalize", "summaries", "dependence"):
            assert report.timings[phase] >= 0.0
