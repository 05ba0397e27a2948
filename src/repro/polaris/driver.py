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
:class:`~repro.polaris.report.Report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.dependence import DependenceTester, TestStats
from repro.analysis.loops import assign_origins
from repro.analysis.normalize import normalize_unit
from repro.analysis.loops import LoopInfo
from repro.analysis.sideeffects import Summary, compute_summaries
from repro.fortran import ast
from repro.obs import metrics as obs_metrics
from repro.obs.profile import FAMILIES, accumulate_test_stats
from repro.polaris.parallelizer import LegalityAnalyzer
from repro.polaris.profitability import ProfitabilityPolicy
from repro.polaris.report import LoopVerdict, Report
from repro.program import Program
from repro.trace import NULL_TRACER, LoopDecision, Tracer

#: TestStats counters recorded as per-loop dependence-test deltas
_STAT_FIELDS = ("ziv_independent", "gcd_independent",
                "banerjee_independent", "exact_independent",
                "assumed_dependent", "cache_hits")


def _stats_snapshot(stats: TestStats) -> tuple:
    return tuple(getattr(stats, name) for name in _STAT_FIELDS)


def _stats_delta(before: tuple, after: tuple) -> Dict[str, int]:
    return {name: b - a
            for name, a, b in zip(_STAT_FIELDS, before, after) if b != a}


@dataclass(frozen=True)
class PolarisOptions:
    normalize: bool = True
    use_banerjee: bool = True
    #: also run the joint Fourier-Motzkin test (coupled subscripts)
    use_exact: bool = False
    min_trip_count: int = 4
    parallelize_nested: bool = True
    #: origins the empirical tuning pass decided to keep serial (Figure 20)
    disabled_origins: frozenset = frozenset()


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
        self.tester = DependenceTester(use_banerjee=options.use_banerjee,
                                       use_exact=options.use_exact)
        self.refresh()

    def refresh(self) -> None:
        self.table = self.program.symtab(self.unit)
        self.analyzer = LegalityAnalyzer(self.table, self.summaries,
                                         self.tester)


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
        with tracer.phase("normalize", report.timings):
            for unit in program.units:
                assign_origins(unit)
            program.invalidate()
            if self.options.normalize:
                for unit in program.units:
                    normalize_unit(unit, program.symtab(unit))
        with tracer.phase("summaries", report.timings,
                          units=len(program.units)):
            summaries = compute_summaries(program)
        with tracer.phase("dependence", report.timings):
            for unit in program.units:
                with tracer.span(f"unit {unit.name}", cat="unit"):
                    self._parallelize_unit(program, unit, summaries,
                                           report, tracer)
            program.invalidate()
        self._observe(report)
        return report

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
                          tracer: Tracer = NULL_TRACER) -> None:
        state = _UnitState(program, unit, summaries, self.options)
        policy = ProfitabilityPolicy(self.options.min_trip_count)

        def process(body: List[ast.Stmt],
                    enclosing: List[ast.DoLoop]) -> List[ast.Stmt]:
            out: List[ast.Stmt] = []
            for s in body:
                if isinstance(s, ast.DoLoop):
                    out.append(self._try_loop(s, enclosing, state, policy,
                                              report, process, tracer))
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
        accumulate_test_stats(report.test_stats, state.tester.stats)

    def _try_loop(self, loop: ast.DoLoop, enclosing: List[ast.DoLoop],
                  state: _UnitState, policy: ProfitabilityPolicy,
                  report: Report, process,
                  tracer: Tracer = NULL_TRACER) -> ast.Stmt:
        info = LoopInfo(loop, list(enclosing))
        traced = tracer.enabled
        if traced:
            stats_before = _stats_snapshot(state.tester.stats)
        verdict = state.analyzer.analyze(info)
        if self.demand is not None:
            for _ in range(_MAX_DEMAND_RETRIES):
                if verdict.parallelized or verdict.reason != "call" \
                        or not verdict.detail:
                    break
                if not self.demand.resolve(state.program, state.unit, loop,
                                           verdict.detail, tracer):
                    break
                state.refresh()
                info = LoopInfo(loop, list(enclosing))
                verdict = state.analyzer.analyze(info)
        origin = info.origin
        if verdict.parallelized and origin in self.options.disabled_origins:
            verdict = replace_verdict(verdict, False, "tuning-disabled")
        profitability = "not-evaluated"
        if verdict.parallelized:
            if policy.profitable(loop, state.table):
                profitability = "profitable"
            else:
                profitability = "unprofitable"
                verdict = replace_verdict(verdict, False, "unprofitable")
        report.add(verdict)
        if traced:
            tracer.decision(LoopDecision(
                unit=verdict.unit, var=verdict.var, origin=origin,
                parallel=verdict.parallelized, reason=verdict.reason,
                detail=verdict.detail, private=tuple(verdict.private),
                reductions=tuple(verdict.reductions),
                profitability=profitability,
                dep_tests=_stats_delta(
                    stats_before,
                    _stats_snapshot(state.tester.stats))))

        inner_body = (process(loop.body, enclosing + [loop])
                      if self.options.parallelize_nested
                      else loop.body)
        new_loop = ast.copy_loop_meta(loop, ast.DoLoop(
            loop.var, loop.start, loop.stop, loop.step, inner_body,
            loop.label, loop.term_label))
        if not verdict.parallelized:
            return new_loop
        return ast.OmpParallelDo(new_loop, private=verdict.private,
                                 reductions=verdict.reductions)


def replace_verdict(v: LoopVerdict, parallelized: bool,
                    reason: str) -> LoopVerdict:
    return LoopVerdict(v.origin, v.unit, v.var, parallelized, reason,
                       private=v.private, reductions=v.reductions)
