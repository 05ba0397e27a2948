"""Loadtest harness tests: payload/reference construction, the report
math, a real concurrent run against an in-process gateway, and the
bench-history record the dashboard plots."""

import json

import pytest

from repro.cluster.loadtest import (HISTORY_SUITE, append_history,
                                    build_payloads, reference_results,
                                    run_loadtest, _percentile)
from repro.service.jobs import payload_digest
from repro.service.server import ParallelizationServer


class TestBuildPayloads:
    def test_probe_payloads_are_distinct_and_deterministic(self):
        payloads = build_payloads(8)
        assert len(payloads) == 8
        assert len({payload_digest(p) for p in payloads}) == 8
        assert payloads == build_payloads(8)

    def test_benchmark_payloads_cycle_configs(self):
        payloads = build_payloads(6, kind="benchmark", benchmark="tref")
        assert len(payloads) == 6
        assert {p["config"] for p in payloads} \
            == {"none", "conventional", "annotation"}
        assert len({payload_digest(p) for p in payloads}) == 6

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="payload kind"):
            build_payloads(4, kind="nonsense")


class TestReferenceResults:
    def test_probe_references(self):
        payloads = build_payloads(3)
        expected = reference_results(payloads)
        assert len(expected) == 3
        for payload in payloads:
            assert expected[payload_digest(payload)] \
                == {"echo": payload["value"]}


class TestPercentile:
    def test_edges(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([7.0], 0.99) == 7.0
        values = [float(i) for i in range(1, 101)]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 1.0) == 100.0
        assert 49.0 <= _percentile(values, 0.5) <= 52.0

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.99, 1.0])
    def test_single_sample_is_that_sample(self, q):
        assert _percentile([3.25], q) == 3.25

    @pytest.mark.parametrize("q,expected", [
        (0.0, 1.0), (0.5, 1.5), (0.99, 1.99), (1.0, 2.0)])
    def test_two_samples_interpolate(self, q, expected):
        # the old round()-based rank banker's-rounded the p50 of two
        # samples down to the smaller one (round(0.5) == 0)
        assert _percentile([1.0, 2.0], q) == pytest.approx(expected)

    @pytest.mark.parametrize("q,expected", [
        (0.0, 1.0), (0.5, 2.0), (0.99, 3.96), (1.0, 4.0)])
    def test_three_samples_interpolate(self, q, expected):
        assert _percentile([1.0, 2.0, 4.0], q) == pytest.approx(expected)

    def test_q_clamped_to_unit_interval(self):
        assert _percentile([1.0, 2.0], -0.5) == 1.0
        assert _percentile([1.0, 2.0], 1.5) == 2.0


class TestRunLoadtest:
    @pytest.fixture()
    def gateway(self):
        gw = ParallelizationServer(port=0, tier="cluster", jobs=2,
                                   inline=True, queue_capacity=1024,
                                   retry_backoff=0.01)
        gw.start()
        yield gw
        gw.stop()

    def test_concurrent_sessions_zero_lost_zero_incorrect(self, gateway):
        host, port = gateway.address
        report = run_loadtest(host, port, sessions=80, distinct=8,
                              wait_timeout=30)
        assert report["ok"], report
        assert report["lost"] == 0 and report["mismatches"] == 0
        assert report["outcomes"] == {"done": 80}
        assert report["jobs"] == 80
        # distinct << sessions: the dedup/cache paths carried the load
        assert report["deduped"] + report["cached"] >= 80 - 8
        assert report["latency"]["p50"] <= report["latency"]["p99"]
        assert report["throughput_jobs_per_sec"] > 0
        assert report["service"]["health"]["tier"] == "cluster"

    def test_unreachable_service_counts_lost_sessions(self):
        report = run_loadtest("127.0.0.1", 1, sessions=3, distinct=3,
                              wait_timeout=2, verify=False)
        assert report["ok"] is False
        assert report["lost"] == 3
        assert "connect" in report["outcomes"]


class TestHistoryRecord:
    def test_append_history_record_shape(self, tmp_path):
        report = {
            "sessions": 10, "jobs": 10, "lost": 0, "mismatches": 0,
            "ok": True, "throughput_jobs_per_sec": 123.4,
            "latency": {"p50": 0.01, "p90": 0.02, "p99": 0.03},
        }
        path = tmp_path / "history.jsonl"
        append_history(report, path=str(path))
        append_history(report, path=str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["suite"] == HISTORY_SUITE == "loadtest"
        assert record["mode"] == "loadtest"
        assert record["p99_seconds"] == 0.03  # the p99 the chart plots
        # p99 must not alias the bench suites' wall-clock field
        assert "total_seconds" not in record
        assert record["phases"] == {"p50": 0.01, "p90": 0.02,
                                    "p99": 0.03}
        assert record["passed"] is True
        assert record["ts"] > 0
