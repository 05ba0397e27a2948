"""Table II — automatically parallelized loops under the three inlining
configurations.

For every benchmark, runs the full pipeline per configuration and
reports, exactly as the paper does:

* ``#par-loops`` — distinct original loops parallelized (in
  execution-reachable code);
* ``#par-loss`` — loops parallelizable with no inlining but not in this
  configuration;
* ``#par-extra`` — loops parallelized beyond the no-inlining baseline;
* ``lines`` — source lines after optimization (comments removed; the
  structural OpenMP directives count, as in the paper).

The ``(benchmark x config)`` pipeline runs are independent, so
:func:`table2_rows` fans them out through
:mod:`repro.experiments.executor`; workers return only origin sets and
line counts, and rows are assembled in registry order, so the rendered
table is byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.experiments.executor import merge_task_traces, run_tasks
from repro.experiments.pipeline import CONFIGS, Config, run_config
from repro.experiments.reporting import text_table
from repro.obs.profile import merge_test_stats
from repro.perfect import all_benchmarks
from repro.perfect.suite import Benchmark
from repro.polaris.report import ConfigComparison, merge_timings
from repro.trace import Tracer


@dataclass
class Table2Row:
    benchmark: str
    #: per config: ConfigComparison
    configs: Dict[str, ConfigComparison]
    lines: Dict[str, int]
    #: per-phase wall-clock seconds summed over this row's pipeline runs
    timings: Dict[str, float] = field(default_factory=dict)
    #: dependence-test family counters summed over this row's runs
    test_stats: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Table2Task:
    """One executor work unit: a single (benchmark, config) pipeline."""

    benchmark: Benchmark
    kind: str
    #: record a worker-local trace and ship it back with the outcome
    trace: bool = False
    #: the annotations axis for ``annotation`` runs (hand/inferred/demand)
    annotations: str = "hand"


@dataclass(frozen=True)
class ConfigOutcome:
    """Picklable per-configuration summary returned by workers."""

    kind: str
    origins: FrozenSet[str]
    code_lines: int
    timings: Dict[str, float]
    #: worker-local :meth:`repro.trace.Tracer.export`, when requested
    trace: Optional[Dict[str, Any]] = None
    #: dependence-test family counters from this run's Polaris report
    test_stats: Dict[str, int] = field(default_factory=dict)


def run_config_task(task: Table2Task) -> ConfigOutcome:
    tracer = Tracer(label=f"table2 {task.benchmark.name}/{task.kind}") \
        if task.trace else None
    result = run_config(task.benchmark,
                        Config(task.kind, annotations=task.annotations),
                        tracer=tracer)
    return ConfigOutcome(task.kind, frozenset(result.parallel_origins()),
                         result.code_lines, dict(result.report.timings),
                         tracer.export() if tracer else None,
                         dict(result.report.test_stats))


def _assemble_row(name: str, outcomes: List[ConfigOutcome]) -> Table2Row:
    by_kind = {o.kind: o for o in outcomes}
    baseline = set(by_kind["none"].origins)
    configs = {kind: ConfigComparison.against_baseline(
        baseline, set(by_kind[kind].origins)) for kind in CONFIGS}
    lines = {kind: by_kind[kind].code_lines for kind in CONFIGS}
    timings: Dict[str, float] = {}
    test_stats: Dict[str, int] = {}
    for outcome in outcomes:
        merge_timings(timings, outcome.timings)
        merge_test_stats(test_stats, outcome.test_stats)
    return Table2Row(name, configs, lines, timings, test_stats)


def table2_row(benchmark: Benchmark,
               tracer: Optional[Tracer] = None,
               annotations: str = "hand") -> Table2Row:
    trace = tracer is not None and tracer.enabled
    outcomes = [run_config_task(Table2Task(benchmark, kind, trace=trace,
                                           annotations=annotations))
                for kind in CONFIGS]
    merge_task_traces(tracer, [o.trace for o in outcomes])
    return _assemble_row(benchmark.name, outcomes)


def table2_outcomes(jobs: Optional[int] = None,
                    benchmarks: Optional[List[Benchmark]] = None,
                    tracer: Optional[Tracer] = None,
                    annotations: str = "hand",
                    ) -> Tuple[List[Table2Row], List[ConfigOutcome]]:
    """Rows plus the raw per-task worker outcomes they were merged from.

    The outcomes come back in task order (benchmark-major, config-minor)
    — one per ``(benchmark, config)`` — so callers can audit that row
    assembly neither drops nor double-counts worker-local data.
    """
    benchmarks = benchmarks if benchmarks is not None else all_benchmarks()
    trace = tracer is not None and tracer.enabled
    tasks = [Table2Task(b, kind, trace=trace,
                        annotations=annotations)
             for b in benchmarks for kind in CONFIGS]
    outcomes = run_tasks(run_config_task, tasks, jobs=jobs,
                         tracer=tracer, label="table2")
    merge_task_traces(tracer, [o.trace for o in outcomes])
    rows = [_assemble_row(b.name,
                          outcomes[i * len(CONFIGS):(i + 1) * len(CONFIGS)])
            for i, b in enumerate(benchmarks)]
    return rows, outcomes


def table2_rows(jobs: Optional[int] = None,
                benchmarks: Optional[List[Benchmark]] = None,
                tracer: Optional[Tracer] = None,
                annotations: str = "hand") -> List[Table2Row]:
    rows, _outcomes = table2_outcomes(jobs, benchmarks, tracer,
                                      annotations=annotations)
    return rows


def render_table2(rows: Optional[List[Table2Row]] = None) -> str:
    rows = rows if rows is not None else table2_rows()
    headers = ["Application",
               "none:par", "none:lines",
               "conv:par", "conv:loss", "conv:extra", "conv:lines",
               "annot:par", "annot:loss", "annot:extra", "annot:lines"]
    body = []
    totals = {k: 0 for k in ("np", "cp", "cl", "ce", "ap", "al", "ae")}
    for r in rows:
        n, c, a = (r.configs[k] for k in ("none", "conventional",
                                          "annotation"))
        body.append([r.benchmark, n.par_loops, r.lines["none"],
                     c.par_loops, c.par_loss, c.par_extra,
                     r.lines["conventional"],
                     a.par_loops, a.par_loss, a.par_extra,
                     r.lines["annotation"]])
        totals["np"] += n.par_loops
        totals["cp"] += c.par_loops
        totals["cl"] += c.par_loss
        totals["ce"] += c.par_extra
        totals["ap"] += a.par_loops
        totals["al"] += a.par_loss
        totals["ae"] += a.par_extra
    body.append(["TOTAL", totals["np"], "", totals["cp"], totals["cl"],
                 totals["ce"], "", totals["ap"], totals["al"],
                 totals["ae"], ""])
    return text_table(
        headers, body,
        title="TABLE II: AUTOMATICALLY PARALLELIZED LOOPS "
              "(no-inlining / conventional / annotation-based)")
