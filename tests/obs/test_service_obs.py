"""Service observability: correlation IDs across the wire, the worker
task wrapper's metric hand-over, and registry parity between the CLI path and the
service path.
"""

import pytest

from repro.experiments.executor import observed
from repro.experiments.pipeline import Config, clear_base_cache, run_config
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.perfect.suite import Benchmark, clear_program_cache
from repro.service.client import ServiceClient
from repro.service.jobs import payload_digest
from repro.service.execution import execute_payload
from repro.service.server import ParallelizationServer

SOURCE = """      PROGRAM P
      COMMON /D/ A(40,4)
      DO 10 I = 1, 40
        DO 5 J = 1, 4
          A(I,J) = I + J*0.5
    5   CONTINUE
   10 CONTINUE
      T = 0.0
      DO 20 I = 1, 40
        T = T + A(I,3)
   20 CONTINUE
      WRITE(6,*) T
      END
"""

#: deterministic dependence/loop counters the worker and CLI paths must
#: agree on (timing histograms legitimately differ run to run)
PARITY_METRICS = ("repro_dep_tests_total", "repro_dep_independent_total",
                  "repro_dep_assumed_total", "repro_loops_total")


def _payload(tag="obs"):
    return {"kind": "sources", "sources": {"p.f": SOURCE},
            "annotations": "", "config": "none", "name": tag}


@pytest.fixture()
def registry():
    previous = obs_metrics.set_registry(MetricsRegistry())
    try:
        yield obs_metrics.get_registry()
    finally:
        obs_metrics.set_registry(previous)


@pytest.fixture()
def server(registry):
    server = ParallelizationServer(port=0, jobs=2, inline=True,
                                   retry_backoff=0.01)
    server.start()
    yield server
    server.stop()


def _counter_values(registry, names):
    out = {}
    for name in names:
        metric = registry.counter(name)
        exported = metric.export()
        out[name] = {tuple(map(tuple, k)): v
                     for k, v in exported["values"]}
    return out


class TestCtxPropagation:
    def test_client_ships_current_context(self, server):
        host, port = server.address
        client = ServiceClient(host=host, port=port)
        with obs_logging.log_context(run_id="svc-run-1"):
            response = client.submit(_payload("ctx1"), wait=True,
                                     wait_timeout=30.0)
        assert response["state"] == "done"
        job = server.get_job(response["job_id"])
        assert job.ctx == {"run_id": "svc-run-1"}

    def test_ctx_not_part_of_dedup_digest(self, server):
        assert payload_digest(_payload("d")) == payload_digest(_payload("d"))
        host, port = server.address
        client = ServiceClient(host=host, port=port)
        with obs_logging.log_context(run_id="first"):
            r1 = client.submit(_payload("dedup"), wait=True,
                               wait_timeout=30.0)
        with obs_logging.log_context(run_id="second"):
            r2 = client.submit(_payload("dedup"), wait=True,
                               wait_timeout=30.0)
        assert r2["cached"] or r2["job_id"] == r1["job_id"]

    def test_malformed_ctx_rejected(self, server):
        response = server.handle_request(
            {"op": "submit", "payload": _payload("bad"),
             "ctx": {"run_id": {"nested": True}}})
        assert not response["ok"]
        assert response["code"] == "bad-request"


class TestWorkerObserved:
    def test_inline_path_writes_parent_registry(self, registry):
        # run_leased's wrapper, called in the caller's own process (an
        # inline pool): observations land here, nothing is handed over
        result, metrics = observed(execute_payload)(_payload("inline"))
        assert metrics is None
        assert result["config"] == "none"
        assert registry.counter("repro_loops_total").total() > 0
        assert registry.histogram("repro_executor_task_seconds").count() == 1


class TestMetricsOpUnion:
    def test_metrics_op_exposes_pipeline_counters(self, server, registry):
        """The metrics op must render the service registry *and* the
        process-default registry pipeline deltas land in — otherwise
        ``svc-status`` never shows the dependence/cache counters."""
        host, port = server.address
        client = ServiceClient(host=host, port=port)
        response = client.submit(_payload("union"), wait=True,
                                 wait_timeout=30.0)
        assert response["state"] == "done"
        answer = server.handle_request({"op": "metrics",
                                        "format": "prometheus"})
        assert answer["ok"]
        text = answer["text"]
        assert "repro_jobs_submitted_total" in text   # service side
        assert "repro_loops_total" in text            # pipeline side
        as_json = server.handle_request({"op": "metrics"})["metrics"]
        assert "repro_dep_tests_total" in as_json


class TestRegistryParity:
    def test_service_matches_cli_counters(self, server, registry):
        """Same work through the service and through run_config must
        land identical deterministic counter values in the default
        registry."""
        host, port = server.address
        client = ServiceClient(host=host, port=port)
        response = client.submit(_payload("parity"), wait=True,
                                 wait_timeout=30.0)
        assert response["state"] == "done"
        service_values = _counter_values(registry, PARITY_METRICS)

        cli_registry = obs_metrics.set_registry(MetricsRegistry())
        try:
            # a fresh parse of the same sources, exactly as the CLI does
            clear_program_cache()
            clear_base_cache()
            benchmark = Benchmark(name="parity",
                                  description="parity check",
                                  sources={"p.f": SOURCE})
            run_config(benchmark, Config("none"))
            cli_values = _counter_values(obs_metrics.get_registry(),
                                         PARITY_METRICS)
        finally:
            obs_metrics.set_registry(cli_registry)

        assert service_values == cli_values
        assert any(service_values[name] for name in PARITY_METRICS)
