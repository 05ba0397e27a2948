"""``repro.trace`` — span-based structured tracing for the pipeline.

The paper's headline evidence is *per-loop* accounting: which loops each
inlining configuration parallelizes, and which are lost or extra
(Tables I/II).  This package mechanizes that attribution:

* a :class:`Tracer` records nested **spans** (parse, normalize,
  inline/annotate, dependence analysis, parallelize, reverse-inline,
  tune) and **per-loop decision records** (:class:`LoopDecision`: loop
  origin, which dependence tests fired, privatization/reduction
  verdicts, profitability outcome, final parallel/serial decision with
  its reason);
* the same tracer is the control plane's span recorder (gateway,
  worker nodes, cache shards), so one span shape covers every tier;
* traces export as Chrome trace-event JSON (loadable in
  ``chrome://tracing`` or Perfetto) through one projection,
  :func:`stitch_spans`, and decisions as a compact JSONL log;
* child traces produced inside executor worker processes merge back
  into the parent trace (:meth:`Tracer.merge`), one process lane each.

Tracing is off by default: every instrumentation point accepts an
optional tracer and falls back to the shared :data:`NULL_TRACER`, whose
spans are a cached no-op context manager and whose ``decision()``
returns immediately — the instrumented pipeline stays within noise of
the uninstrumented one.
"""

from repro.trace.chrome import (stitch_spans, validate_chrome_trace,
                                write_chrome)
from repro.trace.decisions import (LoopDecision, SiteDecision,
                                   count_parallel, read_decisions_jsonl,
                                   write_decisions_jsonl)
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "Tracer", "NULL_TRACER", "LoopDecision", "SiteDecision",
    "count_parallel",
    "read_decisions_jsonl", "write_decisions_jsonl",
    "stitch_spans", "validate_chrome_trace", "write_chrome",
]
