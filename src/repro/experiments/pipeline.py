"""The Table II measurement protocol over the Figure-15 pipeline.

The pipeline itself — inline, Polaris, reverse inline, for the ``none``
/ ``conventional`` / ``annotation`` configurations — is
:func:`repro.pipeline.parallelize_program`; this module runs it over a
:class:`~repro.perfect.suite.Benchmark`: the cached origin-stamped
parse, a clone per configuration, the benchmark's hand annotations and
library units, and the decision stamps the counting protocol needs.

Counting protocol (the paper's): each *original* loop (origin identity)
counts once; a loop counts as parallelized in a configuration when any of
its copies in an *execution-reachable* unit received a directive.  A
procedure whose every call site was inlined away is dead code — its
still-parallelizable original no longer executes, which is exactly how
conventional inlining manifests ``#par-loss``.

The cached base carries an :class:`~repro.polaris.driver.AnalysisMemo`:
keyed on a unit ``==`` its base unit, its callees' purity and the
options, it replays copies of the analyzed body and decision records
(stamped below) and the TestStats; :func:`clear_base_cache` frees it.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.analysis.loops import assign_origins
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.perfect.suite import Benchmark
from repro.pipeline import (CONFIGS, Config, PipelineResult,  # noqa: F401
                            _reachable_units, parallelize_program)
from repro.polaris.driver import AnalysisMemo
from repro.polaris.report import merge_timings
from repro.program import Program
from repro.trace import NULL_TRACER, Tracer


#: source digest -> origin-stamped base program.  Stamping is
#: deterministic over a deterministic parse, so every configuration (in
#: every process) derives identical origin identities from its own copy;
#: the cached base itself is never mutated — callers always clone.
_BASE_CACHE: Dict[str, Program] = {}


def clear_base_cache() -> None:
    _BASE_CACHE.clear()


def prepare_base(benchmark: Benchmark) -> Program:
    """Parse the benchmark and stamp loop origins (done once, before any
    configuration clones the program, so origins are comparable)."""
    digest = benchmark.digest()
    lookups = obs_metrics.counter("repro_base_cache_total",
                                  "stamped-base cache lookups by outcome")
    base = _BASE_CACHE.get(digest)
    if base is None:
        lookups.inc(outcome="miss")
        base = benchmark.program()
        for unit in base.units:
            assign_origins(unit)
        base.memo = AnalysisMemo(base)
        _BASE_CACHE[digest] = base
    else:
        lookups.inc(outcome="memory_hit")
    return base


def run_config(benchmark: Benchmark, config: Config,
               base: Optional[Program] = None,
               tracer: Optional[Tracer] = None) -> PipelineResult:
    """One configuration of one benchmark: the cached origin-stamped
    base, cloned, through :func:`repro.pipeline.parallelize_program`,
    with the run's decision records stamped for Table II's count."""
    tracer = tracer or NULL_TRACER
    timings: Dict[str, float] = {}
    # every log record inside the pipeline (and below it) carries the
    # benchmark/config correlation IDs, on top of whatever run_id/job_id
    # the caller established
    with obs_logging.log_context(benchmark=benchmark.name,
                                 config=config.kind):
        # inference-time fallback records are site decisions of this run
        # too and are stamped below
        first_decision = len(tracer.decisions)
        first_site = len(tracer.site_decisions)
        with tracer.span("pipeline", benchmark=benchmark.name,
                         config=config.kind):
            if base is None:
                with tracer.phase("parse", timings, benchmark=benchmark.name):
                    base = prepare_base(benchmark)
            with tracer.phase("clone", timings):
                program = base.clone()
            result = parallelize_program(
                program, config,
                benchmark.registry() if config.kind == "annotation"
                else None,
                unavailable=benchmark.library_units, tracer=tracer)
        report = result.report
        merge_timings(report.timings, timings)
        if tracer.enabled:
            _stamp_decisions(tracer.decisions[first_decision:],
                             benchmark.name, config.kind,
                             result.reachable_units())
            for d in tracer.site_decisions[first_site:]:
                d.benchmark = benchmark.name
                d.config = config.kind
        obs_logging.get_logger("repro.pipeline").info(
            "pipeline-done", parallel=len(report.parallel_origins()),
            lines=result.code_lines,
            seconds=round(sum(report.timings.values()), 4))
    return result


def _stamp_decisions(decisions, benchmark: str, kind: str,
                     reachable: Set[str]) -> None:
    """Attribute freshly recorded loop decisions to this pipeline run and
    mark whether each loop's unit is execution-reachable — the trace-side
    half of the Table II counting protocol (see
    :func:`repro.trace.count_parallel`)."""
    for d in decisions:
        d.benchmark = benchmark
        d.config = kind
        d.reachable = d.unit in reachable


def summarize_result(result: PipelineResult) -> Dict[str, object]:
    """JSON-safe summary of one pipeline run.

    This is what the service hands back to clients (and persists in its
    result cache): the optimized source itself plus the numbers Table II
    is built from.  Everything here survives both pickling across the
    worker-pool boundary and JSON serialization on the wire.
    """
    origins = sorted(result.parallel_origins())
    return {
        "config": result.config,
        "annotations": result.annotations,
        "parallel_count": len(origins),
        "parallel_origins": origins,
        "code_lines": result.code_lines,
        "timings": dict(result.report.timings),
        "serial_reasons": result.report.reasons_histogram(),
        "output": result.output,
    }


def run_all_configs(benchmark: Benchmark,
                    tracer: Optional[Tracer] = None,
                    ) -> Dict[str, PipelineResult]:
    parse: Dict[str, float] = {}
    with (tracer or NULL_TRACER).phase("parse", parse,
                                       benchmark=benchmark.name):
        base = prepare_base(benchmark)
    out: Dict[str, PipelineResult] = {}
    for kind in CONFIGS:
        out[kind] = run_config(benchmark, Config(kind), base,
                               tracer=tracer)
    # the shared parse is real work one of the runs must account for,
    # or --profile would silently drop the phase on this path
    merge_timings(out[CONFIGS[0]].report.timings, parse)
    return out
