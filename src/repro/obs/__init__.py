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

The package re-exports nothing: import the submodule you need, so a
command loads only the parts of the spine it uses.
"""
