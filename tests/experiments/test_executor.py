"""Tests for the parallel experiment executor, the parse/program caches,
the dependence-query memo table, and the per-phase profiling timers.

The load-bearing guarantees: rendered artifacts are byte-identical
between serial and parallel runs and between cold and warm caches, and
the executor degrades gracefully to serial execution.
"""

import os

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
from repro.perfect import get_benchmark
from repro.perfect import suite
from repro.polaris import Polaris
from repro.program import Program


def _square(x):
    return x * x


def _clear_caches(disk: bool = False) -> None:
    suite.clear_program_cache(disk=disk)
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
    def process_pool(self):
        pool = WorkerPool(workers=2, inline=False)
        try:
            pool.run(_square, 1)
        except Exception:
            pool.shutdown()
            pytest.skip("process pool unavailable in this sandbox")
        if pool.inline:
            pool.shutdown()
            pytest.skip("process pool unavailable in this sandbox")
        yield pool
        pool.shutdown()

    def test_process_mode_runs_in_worker(self, process_pool):
        assert process_pool.run(_square, 6) == 36

    def test_killed_worker_raises_and_pool_recovers(self, process_pool):
        with pytest.raises(WorkerCrashError):
            process_pool.run(_kill_self, None)
        # the broken pool was recycled: the next task succeeds
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


class TestDiskCache:
    @pytest.fixture()
    def disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(suite.DISK_CACHE_ENV, "1")
        monkeypatch.setenv(suite.CACHE_DIR_ENV, str(tmp_path))
        _clear_caches()
        yield tmp_path
        _clear_caches()

    def test_roundtrip(self, disk_cache):
        bench = get_benchmark("adm")
        fresh = bench.program().unparse()
        entries = list(disk_cache.glob("*.pkl"))
        assert entries, "parse should have been written to disk"
        suite.clear_program_cache()  # force the disk path
        assert bench.program().unparse() == fresh

    def test_corrupt_entry_falls_back_to_parse(self, disk_cache):
        bench = get_benchmark("adm")
        fresh = bench.program().unparse()
        corrupted = list(disk_cache.glob("*.pkl"))
        for entry in corrupted:
            entry.write_bytes(b"not a pickle")
        suite.clear_program_cache()
        assert bench.program().unparse() == fresh
        # the corrupt entries were evicted (and rewritten by the reparse),
        # so a concurrent-writer casualty cannot re-trip every later run
        for entry in corrupted:
            assert entry.read_bytes() != b"not a pickle"

    def test_truncated_entry_falls_back_to_parse(self, disk_cache):
        bench = get_benchmark("adm")
        fresh = bench.program().unparse()
        for entry in disk_cache.glob("*.pkl"):
            # simulate a writer that died mid-write
            entry.write_bytes(entry.read_bytes()[:64])
        suite.clear_program_cache()
        assert bench.program().unparse() == fresh

    def test_clear_disk(self, disk_cache):
        get_benchmark("adm").program()
        suite.clear_program_cache(disk=True)
        assert not disk_cache.exists()

    def test_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(suite.DISK_CACHE_ENV, raising=False)
        monkeypatch.setenv(suite.CACHE_DIR_ENV, str(tmp_path / "cc"))
        suite.clear_program_cache()
        get_benchmark("adm").program()
        assert not (tmp_path / "cc").exists()


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
