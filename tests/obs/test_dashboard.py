"""Dashboard: count verification, data collection, and self-contained
HTML rendering.
"""

import json

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.dashboard import (CountMismatchError, DashboardData,
                                 collect, read_bench_history,
                                 read_fuzz_stats, render_dashboard,
                                 verify_counts, write_dashboard)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def registry():
    previous = obs_metrics.set_registry(MetricsRegistry())
    try:
        yield
    finally:
        obs_metrics.set_registry(previous)


@pytest.fixture(scope="module")
def data():
    previous = obs_metrics.set_registry(MetricsRegistry())
    try:
        return collect(benchmarks=["trfd", "mdg"])
    finally:
        obs_metrics.set_registry(previous)


class TestVerifyCounts:
    def test_mismatch_raises(self, data):
        import copy
        import dataclasses
        doctored = copy.deepcopy(data.rows)
        good = doctored[0].configs["none"]
        doctored[0].configs["none"] = dataclasses.replace(
            good, par_loops=good.par_loops + 1)
        with pytest.raises(CountMismatchError):
            verify_counts(doctored, data.decisions)

    def test_collected_data_verifies(self, data):
        verify_counts(data.rows, data.decisions)  # must not raise

    def test_counts_match_rows_exactly(self, data):
        for row in data.rows:
            for kind in ("none", "conventional", "annotation"):
                assert data.counts[(row.benchmark, kind)] \
                    == row.configs[kind].par_loops


class TestCollect:
    def test_shape(self, data):
        assert data.benchmarks == ["TRFD", "MDG"]
        assert len(data.rows) == 2
        assert data.decisions
        assert data.timings
        assert "repro_dep_tests_total" in data.metrics_text

    def test_history_and_fuzz_are_optional(self, data):
        assert isinstance(data.bench_history, list)

    def test_cache_table_counts_what_pool_workers_looked_up(self, registry):
        # under -j the lookups happen in worker processes; the table is
        # read from the lookup counters their metrics are merged into
        data = collect(benchmarks=["trfd"], jobs=2)
        html = render_dashboard(data)
        for name, stats in (("repro_parse_cache_total", data.parse_cache),
                            ("repro_base_cache_total", data.base_cache)):
            lookups = obs_metrics.counter(name)
            hits = lookups.value(outcome="memory_hit")
            misses = lookups.value(outcome="miss")
            assert (stats["memory_hits"], stats["misses"]) == (hits, misses)
            assert f"<td class=num>{int(misses)}</td>" in html
        assert data.base_cache["memory_hits"] + data.base_cache["misses"] == 3


class TestReaders:
    def test_history_reader_tolerates_junk(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"total_seconds": 1.0}\n'
                        'not json\n'
                        '[1,2]\n'
                        '{"total_seconds": 2.0}\n')
        entries = read_bench_history(str(path))
        assert [e["total_seconds"] for e in entries] == [1.0, 2.0]

    def test_history_reader_missing_file(self, tmp_path):
        assert read_bench_history(str(tmp_path / "nope.jsonl")) == []

    def test_fuzz_reader(self, tmp_path):
        path = tmp_path / "fuzz_latest.json"
        path.write_text(json.dumps({"programs": 10, "mismatches": 0}))
        assert read_fuzz_stats(str(path))["programs"] == 10
        assert read_fuzz_stats(str(tmp_path / "nope.json")) is None


class TestRender:
    def test_self_contained(self, data):
        html = render_dashboard(data)
        assert "http://" not in html
        assert "https://" not in html
        assert "<script" not in html
        assert "<link" not in html
        assert html.startswith("<!doctype html>")

    def test_names_every_benchmark(self, data):
        html = render_dashboard(data)
        for name in data.benchmarks:
            assert name in html

    def test_counts_in_table(self, data):
        html = render_dashboard(data)
        for row in data.rows:
            # each config's par-loop count appears in the Table II markup
            assert (f"<td class=num>"
                    f"{row.configs['annotation'].par_loops}</td>") in html

    def test_drilldown_present(self, data):
        html = render_dashboard(data)
        assert "<details" in html
        assert "TRFD" in html

    def test_history_chart_rendered(self, data, tmp_path):
        enriched = DashboardData(**{**data.__dict__})
        enriched.bench_history = [
            {"ts": 1700000000.0 + i, "total_seconds": 0.3 + 0.01 * i,
             "passed": True} for i in range(5)]
        html = render_dashboard(enriched)
        assert "<svg" in html
        assert "polyline" in html

    def test_loadtest_history_plots_p99_with_latency_axis(self, data):
        enriched = DashboardData(**{**data.__dict__})
        enriched.bench_history = [
            {"ts": 1700000000.0 + i, "suite": "loadtest",
             "p99_seconds": 0.05 + 0.01 * i, "passed": True}
            for i in range(3)]
        html = render_dashboard(enriched)
        assert "p99 job latency, seconds" in html
        # latency is not captioned as bench wall-clock
        assert html.count("wall-clock (median of each") == 0

    def test_legacy_loadtest_records_still_plot(self, data):
        # pre-fix records aliased the p99 into total_seconds
        enriched = DashboardData(**{**data.__dict__})
        enriched.bench_history = [
            {"ts": 1700000000.0, "suite": "loadtest",
             "total_seconds": 0.07, "passed": True},
            {"ts": 1700000001.0, "suite": "loadtest",
             "p99_seconds": 0.08, "passed": True}]
        html = render_dashboard(enriched)
        assert "p99 job latency, seconds" in html
        assert "0.07" in html and "0.08" in html

    def test_other_suites_in_the_history_are_not_plotted(self, data):
        # BENCH_history.jsonl also holds before/after rows of the frozen
        # benchmark (suite "bench/<workload>"): recorded, never charted
        row = {"ts": 1700000000.0, "suite": "bench/parallelize",
               "git_commit": "cb33013", "seed": 2011,
               "total_seconds": 0.4321, "phases": {"fortran": 0.167}}
        enriched = DashboardData(**{**data.__dict__})
        enriched.bench_history = [row]
        alone = render_dashboard(enriched)
        assert "polyline" not in alone and "0.4321" not in alone
        enriched.bench_history = [
            {"ts": 1700000000.0 + i, "total_seconds": 0.3, "passed": True}
            for i in range(3)]
        without = render_dashboard(enriched)
        enriched.bench_history = enriched.bench_history + [row]
        assert render_dashboard(enriched) == without

    def test_escapes_untrusted_text(self, data):
        enriched = DashboardData(**{**data.__dict__})
        enriched.fuzz_stats = {"programs": 1,
                               "seed": "<script>alert(1)</script>"}
        html = render_dashboard(enriched)
        assert "<script>alert(1)</script>" not in html

    def test_write_dashboard(self, data, tmp_path):
        out = tmp_path / "report.html"
        write_dashboard(str(out), data)
        assert out.read_text(encoding="utf-8").startswith("<!doctype")
