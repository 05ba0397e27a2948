"""The Polaris-like compiler driver.

Runs the full source-to-source automatic parallelization pipeline on a
:class:`~repro.program.Program`:

1. origin stamping (stable loop identities for Table II accounting);
2. normalization (parameter propagation, induction substitution, forward
   substitution) — the transformations the paper notes Polaris applies and
   the reverse inliner must tolerate;
3. interprocedural side-effect summaries;
4. per-loop legality + profitability, **outermost first**: when an outer
   loop is parallelized its inner loops are still analyzed and may also
   receive directives (the paper's Figure 17 shows exactly such nested
   regions); at execution time nested regions run serially, matching
   OpenMP's default;
5. OpenMP directive insertion (:class:`~repro.fortran.ast.OmpParallelDo`).

The driver mutates the program in place and returns a
:class:`~repro.polaris.report.Report`.  A clone of a stamped base
reuses its :class:`AnalysisMemo` for the units inlining left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.analysis.callgraph import build_callgraph
from repro.analysis.defuse import collect_accesses
from repro.analysis.dependence import DependenceTester
from repro.analysis.loops import assign_origins
from repro.analysis.normalize import normalize_unit
from repro.analysis.loops import LoopInfo
from repro.analysis.sideeffects import Summary, compute_summaries
from repro.fortran import ast
from repro.obs import metrics as obs_metrics
from repro.obs.profile import FAMILIES, accumulate_test_stats
from repro.polaris.parallelizer import LegalityAnalyzer
from repro.polaris.profitability import profitable
from repro.polaris.report import Report
from repro.program import Program
from repro.trace import NULL_TRACER, Tracer
from repro.trace.decisions import LoopDecision

#: TestStats counters recorded as per-loop dependence-test deltas
_STAT_FIELDS = ("ziv_independent", "gcd_independent",
                "banerjee_independent", "assumed_dependent", "cache_hits")

#: ``_stats_snapshot(stats)``: the _STAT_FIELDS counters, as a tuple
_stats_snapshot = attrgetter(*_STAT_FIELDS)


def _stats_delta(before: tuple, after: tuple) -> Dict[str, int]:
    return {name: b - a
            for name, a, b in zip(_STAT_FIELDS, before, after) if b != a}


@dataclass(frozen=True)
class PolarisOptions:
    use_banerjee: bool = True


class _UnitState:
    """The per-unit analysis context, rebuildable mid-run.

    Demand-driven inlining mutates the unit while its loops are being
    analyzed; :meth:`refresh` re-derives the symbol table and legality
    analyzer (keeping the dependence tester, so TestStats accumulate
    across refreshes)."""

    def __init__(self, program: Program, unit: ast.ProgramUnit,
                 summaries: Dict[str, Summary], options: PolarisOptions):
        self.program = program
        self.unit = unit
        self.summaries = summaries
        self.tester = DependenceTester(use_banerjee=options.use_banerjee)
        self.refresh()

    def refresh(self) -> None:
        self.table = self.program.symtab(self.unit)
        self.analyzer = LegalityAnalyzer(self.table, self.summaries,
                                         self.tester)


class AnalysisMemo:
    """Per-unit results over the clones of one never-mutated base.  Only
    a unit ``==`` its base unit looks up ``normalized`` (name -> body)
    and ``analyzed``: ``(name, options, ((callee, Summary.pure or None),
    ...))`` -> (body, decision records, TestStats).  It keeps bodies no
    program holds and hands out copies (Way & Pollock's rule)."""

    def __init__(self, base: Program):
        self.base = {u.name: u for u in base.units}
        self.normalized: Dict[str, List[ast.Stmt]] = {}
        self.analyzed: Dict[tuple, Tuple[List[ast.Stmt],
                                         List[LoopDecision], object]] = {}


#: bound on demand-resolution retries per loop (each retry resolves one
#: distinct callee; real loops have a handful of calls)
_MAX_DEMAND_RETRIES = 16


@dataclass
class Polaris:
    options: PolarisOptions = field(default_factory=PolarisOptions)
    #: optional :class:`repro.inlining.demand.DemandInliner`; when set,
    #: loops rejected on an opaque CALL get their callees resolved on
    #: demand (annotation or body) and are re-analyzed
    demand: Optional[object] = None

    def run(self, program: Program,
            tracer: Optional[Tracer] = None) -> Report:
        tracer = tracer or NULL_TRACER
        report = Report()
        units = program.units
        # a DemandInliner rewrites units mid-analysis: no memo then
        memo = program.memo if self.demand is None else None
        same = [memo is not None and memo.base.get(u.name) == u
                for u in units]
        try:
            with tracer.phase("normalize", report.timings):
                # an equal unit's body is the memo's until it is analyzed
                for unit, equal in zip(units, same):
                    assign_origins(unit)
                    if equal and unit.name in memo.normalized:
                        unit.body = memo.normalized[unit.name]
                        continue
                    normalize_unit(unit, program.symtab(unit))
                    if equal:
                        memo.normalized[unit.name] = unit.body
            with tracer.phase("summaries", report.timings, units=len(units)):
                graph = build_callgraph(program)
                summaries = compute_summaries(program, graph)
            report.edges = graph.edges if self.demand is None else None
            with tracer.phase("dependence", report.timings):
                for unit, equal in zip(units, same):
                    with tracer.span(f"unit {unit.name}", cat="unit"):
                        key = (unit.name, self.options, tuple(
                            (c, getattr(summaries.get(c), "pure", None))
                            for c in sorted(graph.edges[unit.name]))
                        ) if equal else None
                        self._analyze_unit(program, unit, memo, key,
                                           summaries, report, tracer)
        finally:
            for unit, equal in zip(units, same):
                if equal and unit.body is memo.normalized.get(unit.name):
                    unit.body = ast.clone(unit.body)
        self._observe(report)
        return report

    def _analyze_unit(self, program: Program, unit: ast.ProgramUnit,
                      memo: Optional[AnalysisMemo], key: Optional[tuple],
                      summaries: Dict[str, Summary], report: Report,
                      tracer: Tracer) -> None:
        """Analyze ``unit``, or replay the memo's result for ``key`` into
        the report, the tracer and the metrics as an analysis emits it."""
        hit = memo.analyzed.get(key) if key is not None else None
        if memo is not None:
            obs_metrics.counter("repro_analysis_memo_total",
                                "per-unit analysis memo lookups").inc(
                outcome="miss" if hit is None else "hit")
        if hit is not None:
            body, decisions, stats = hit
            unit.body = ast.clone(body)
            for d in decisions:
                decision = replace(d, dep_tests=dict(d.dep_tests))
                report.add(decision)
                tracer.decision(decision)
        else:
            if key is not None:
                unit.body = ast.clone(unit.body)
            first = len(report.verdicts)
            stats = self._parallelize_unit(program, unit, summaries,
                                           report, tracer)
            if key is not None:
                memo.analyzed[key] = (ast.clone(unit.body), [
                    replace(d, dep_tests=dict(d.dep_tests))
                    for d in report.verdicts[first:]], stats)
        accumulate_test_stats(report.test_stats, stats)

    @staticmethod
    def _observe(report: Report) -> None:
        """Publish this run's dependence-test and verdict counts to the
        default metrics registry (worker-side deltas of these are what
        the executor merges back into the parent)."""
        stats = report.test_stats
        attempts = obs_metrics.counter(
            "repro_dep_tests_total", "dependence-test attempts by family")
        kills = obs_metrics.counter(
            "repro_dep_independent_total",
            "dependences disproved, by family")
        for name, attempts_field, kills_field in FAMILIES:
            family = name.lower()
            attempts.inc(stats.get(attempts_field, 0), family=family)
            kills.inc(stats.get(kills_field, 0), family=family)
        obs_metrics.counter(
            "repro_dep_assumed_total",
            "queries no test could disprove").inc(
                stats.get("assumed_dependent", 0))
        obs_metrics.counter(
            "repro_dep_cache_hits_total",
            "dependence queries answered from the memo table").inc(
                stats.get("cache_hits", 0))
        loops = obs_metrics.counter("repro_loops_total",
                                    "analyzed loops by verdict")
        npar = sum(1 for v in report.verdicts if v.parallelized)
        loops.inc(npar, verdict="parallel")
        loops.inc(len(report.verdicts) - npar, verdict="serial")

    # ------------------------------------------------------------------
    def _parallelize_unit(self, program: Program, unit: ast.ProgramUnit,
                          summaries: Dict[str, Summary],
                          report: Report,
                          tracer: Tracer = NULL_TRACER):
        """Analyze ``unit`` in place; its tester's TestStats."""
        state = _UnitState(program, unit, summaries, self.options)

        def process(body: List[ast.Stmt],
                    enclosing: List[ast.DoLoop]) -> List[ast.Stmt]:
            out: List[ast.Stmt] = []
            for s in body:
                if isinstance(s, ast.DoLoop):
                    out.append(self._try_loop(s, enclosing, state, report,
                                              process, tracer))
                elif isinstance(s, ast.IfBlock):
                    out.append(ast.IfBlock(
                        [(c, process(b, enclosing)) for c, b in s.arms],
                        s.label))
                elif isinstance(s, ast.TaggedBlock):
                    out.append(ast.TaggedBlock(
                        s.callee, s.site_id, s.actuals,
                        process(s.body, enclosing), s.label))
                else:
                    out.append(s)
            return out

        unit.body = process(unit.body, [])
        return state.tester.stats

    def _try_loop(self, loop: ast.DoLoop, enclosing: List[ast.DoLoop],
                  state: _UnitState, report: Report, process,
                  tracer: Tracer = NULL_TRACER) -> ast.Stmt:
        info = LoopInfo(loop, list(enclosing))
        stats_before = _stats_snapshot(state.tester.stats)
        acc = collect_accesses(loop.body, state.table)
        decision = state.analyzer.analyze(info, acc)
        if self.demand is not None:
            for _ in range(_MAX_DEMAND_RETRIES):
                if decision.reason != "call" or not decision.detail:
                    break
                if not self.demand.resolve(state.program, state.unit, loop,
                                           decision.detail, tracer):
                    break
                state.refresh()
                info = LoopInfo(loop, list(enclosing))
                acc = collect_accesses(loop.body, state.table)
                decision = state.analyzer.analyze(info, acc)
        if decision.parallelized:
            if profitable(loop, acc):
                decision.profitability = "profitable"
            else:
                decision.profitability = "unprofitable"
                decision.parallelized = False
                decision.reason = "unprofitable"
        decision.dep_tests = _stats_delta(
            stats_before, _stats_snapshot(state.tester.stats))
        report.add(decision)
        tracer.decision(decision)

        new_loop = ast.copy_loop_meta(loop, ast.DoLoop(
            loop.var, loop.start, loop.stop, loop.step,
            process(loop.body, enclosing + [loop]),
            loop.label, loop.term_label))
        if not decision.parallelized:
            return new_loop
        return ast.OmpParallelDo(new_loop, private=decision.private,
                                 reductions=decision.reductions)
