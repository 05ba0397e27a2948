"""repro.obs — the unified observability spine.

* :mod:`repro.obs.metrics` — counters/gauges/histograms and the
  process-wide default :class:`~repro.obs.metrics.MetricsRegistry`,
  with drain/merge for crossing the worker-pool boundary;
* :mod:`repro.obs.logging` — structured JSON/text logging with
  contextvars-carried correlation IDs (``run_id``, ``job_id``,
  ``benchmark``, ``config``), size-rotated file sinks;
* :mod:`repro.obs.distributed` — trace-context propagation and
  per-node clock-offset estimation (spans are recorded by
  :class:`repro.trace.Tracer` and stitched by
  :func:`repro.trace.stitch_spans`);
* :mod:`repro.obs.telemetry` — the gateway telemetry plane's store
  (periodic merged snapshots, health events, the run's spans) with
  JSONL persistence under ``.repro_cache/telemetry/``;
* :mod:`repro.obs.slo` — declarative SLO specs evaluated over loadtest
  reports and telemetry windows, with burn-rate alerts;
* :mod:`repro.obs.top` — the ``repro top`` live terminal view;
* :mod:`repro.obs.profile` — phase timings + dependence-test family
  stats + optional cProfile top-N behind ``--profile``;
* :mod:`repro.obs.dashboard` — the ``repro report --out`` self-contained
  HTML dashboard.
"""

from repro.obs.distributed import (ClockModel, TraceContext,
                                   validate_trace_ctx)
from repro.obs.logging import (configure, current_context, get_logger,
                               log_context, new_run_id, validate_record)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               counter, gauge, get_registry, histogram,
                               set_registry)
from repro.obs.slo import evaluate_slo, load_slo_spec, validate_slo_spec
from repro.obs.telemetry import TelemetryStore

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "counter", "gauge", "histogram", "get_registry", "set_registry",
    "configure", "current_context", "get_logger", "log_context",
    "new_run_id", "validate_record",
    "ClockModel", "TraceContext", "validate_trace_ctx", "TelemetryStore",
    "evaluate_slo", "load_slo_spec", "validate_slo_spec",
]
