"""Metrics registry: values, JSON rendering, Prometheus text format."""

from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        m = MetricsRegistry()
        c = m.counter("repro_test_total", "a test counter")
        c.inc()
        c.inc(2)
        assert c.value() == 3
        assert m.to_json()["repro_test_total"] == 3

    def test_labels(self):
        m = MetricsRegistry()
        c = m.counter("repro_jobs_completed_total")
        c.inc(state="done")
        c.inc(state="done")
        c.inc(state="failed")
        assert c.value(state="done") == 2
        assert c.value(state="failed") == 1
        assert c.total() == 3
        rendered = m.to_json()["repro_jobs_completed_total"]
        assert rendered['{state="done"}'] == 2

    def test_untouched_counter_renders_zero(self):
        m = MetricsRegistry()
        m.counter("repro_untouched_total")
        assert m.to_json()["repro_untouched_total"] == 0

    def test_get_or_create_idempotent(self):
        m = MetricsRegistry()
        assert m.counter("repro_x_total") is m.counter("repro_x_total")


class TestGauge:
    def test_set_inc_dec(self):
        m = MetricsRegistry()
        g = m.gauge("repro_queue_depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4
        assert m.to_json()["repro_queue_depth"] == 4


class TestHistogram:
    def test_buckets_are_cumulative(self):
        m = MetricsRegistry()
        h = m.histogram("repro_lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        data = m.to_json()["repro_lat_seconds"]
        assert data["count"] == 5
        assert data["sum"] == 56.05
        # bucket labels use the Prometheus float rendering (1, not 1.0)
        # consistently across to_json() and samples()
        assert data["buckets"]["0.1"] == 1
        assert data["buckets"]["1"] == 3
        assert data["buckets"]["10"] == 4
        assert data["buckets"]["+Inf"] == 5


class TestPrometheusText:
    def test_format(self):
        m = MetricsRegistry()
        m.counter("repro_jobs_submitted_total", "jobs accepted").inc(7)
        m.gauge("repro_queue_depth", "queue depth").set(2)
        m.counter("repro_jobs_completed_total").inc(state="done")
        h = m.histogram("repro_lat_seconds", "latency", buckets=(1.0,))
        h.observe(0.5)
        h.observe(2.0)
        text = m.to_prometheus()
        assert "# HELP repro_jobs_submitted_total jobs accepted" in text
        assert "# TYPE repro_jobs_submitted_total counter" in text
        assert "repro_jobs_submitted_total 7" in text
        assert "repro_queue_depth 2" in text
        assert 'repro_jobs_completed_total{state="done"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_sum 2.5" in text
        assert "repro_lat_seconds_count 2" in text
        assert text.endswith("\n")

    def test_type_conflict_rejected(self):
        import pytest
        m = MetricsRegistry()
        m.counter("repro_x")
        with pytest.raises(TypeError):
            m.gauge("repro_x")
