"""Shared fixtures for the cluster tests.

Every test runs against a fresh process-wide metrics registry: pipeline
counters of jobs run in this process land in the default registry, and
the loadtest harness lands its headline gauges there, so without
isolation one test's numbers would leak into the next's assertions.
"""

import pytest

from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def isolated_registry():
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    yield obs_metrics.get_registry()
    obs_metrics.set_registry(previous)
