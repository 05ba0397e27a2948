"""``table2`` — the paper's compile-side artefact, hand annotations.

One pass is what ``repro table2 -j1`` does after import: with the parse
and base caches cleared, each of the 12 PERFECT substitutes is parsed
once and run through the ``none`` / ``conventional`` / ``annotation``
pipelines (one op each, 36 per pass), then Table II is rendered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List

from repro.annotations import AnnotationInliner, ReverseInliner
from repro.experiments.pipeline import (CONFIGS, Config, PipelineResult,
                                        clear_base_cache, prepare_base,
                                        run_config)
from repro.experiments.table2 import Table2Row, render_table2
from repro.inlining import ConventionalInliner
from repro.inlining.heuristics import InlinePolicy
from repro.perfect import all_benchmarks
from repro.perfect.suite import Benchmark, clear_program_cache
from repro.polaris import Polaris
from repro.polaris.report import ConfigComparison
from repro.trace import Tracer

from .. import expected
from ..timing import Clock
from ..workload import Workload


@dataclass(frozen=True)
class NoSourcePolicy(InlinePolicy):
    """The default policy with some procedures' source unavailable (the
    benchmark's external-library units)."""

    unavailable: FrozenSet[str] = frozenset()

    def rejection_reason(self, program, graph, callee_name, in_loop):
        if callee_name.upper() in self.unavailable:
            return "no-source"
        return super().rejection_reason(program, graph, callee_name,
                                        in_loop)


def conventional_policy(benchmark: Benchmark) -> InlinePolicy:
    if not benchmark.library_units:
        return InlinePolicy()
    return NoSourcePolicy(unavailable=frozenset(benchmark.library_units))


def benchmark_input_digest(benchmark: Benchmark) -> str:
    return expected.digest([sorted(benchmark.sources.items()),
                            benchmark.annotations,
                            sorted(benchmark.library_units)])


def summarize(result: PipelineResult) -> Dict[str, Any]:
    """What a ``run_config`` op is checked on: the parallel-loop
    verdicts, the code size and the generated source."""
    return {
        "parallel_origins": sorted(result.parallel_origins()),
        "code_lines": result.code_lines,
        "output_sha256": expected.sha256_text(
            "".join(result.program.unparse().values())),
    }


def polaris_counts(workload: Workload, report) -> None:
    """Fold one Polaris report's program-reported numbers into the
    staged pass's counts."""
    for phase in ("normalize", "summaries", "dependence"):
        # read from Report.timings: reported by the program, not spans
        workload.report_s(f"analysis.{phase}_s",
                          report.timings.get(phase, 0.0))
    stats = report.test_stats
    unique = sum(stats.get(f"{family}_independent", 0)
                 for family in ("ziv", "gcd", "banerjee", "exact"))
    unique += stats.get("assumed_dependent", 0)
    workload.count("analysis.dep_queries",
                   unique + stats.get("cache_hits", 0))
    workload.count("analysis.dep_cache_hits", stats.get("cache_hits", 0))
    workload.count("analysis.dep_assumed",
                   stats.get("assumed_dependent", 0))
    workload.count("polaris.loops", len(report.verdicts))
    workload.count("polaris.loops_parallel",
                   sum(1 for v in report.verdicts if v.parallelized))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def dep_cache_hit_ratio(counts: Dict[str, float]) -> float:
    return ratio(counts.get("analysis.dep_cache_hits", 0),
                 counts.get("analysis.dep_queries", 0))


def assemble_rows(benchmarks, outcomes: Dict[str, Dict[str, Any]]
                  ) -> List[Table2Row]:
    """Table II rows, in ``benchmarks`` order, from op summaries keyed
    ``<benchmark>/<config>``."""
    rows = []
    for b in benchmarks:
        per = {kind: outcomes[f"{b.name}/{kind}"] for kind in CONFIGS}
        origins = {kind: set(per[kind]["parallel_origins"])
                   for kind in CONFIGS}
        rows.append(Table2Row(
            b.name,
            {kind: ConfigComparison.against_baseline(origins["none"],
                                                     origins[kind])
             for kind in CONFIGS},
            {kind: per[kind]["code_lines"] for kind in CONFIGS}))
    return rows


class Table2(Workload):
    name = "table2"
    ops_per_pass = 36

    def prepare(self) -> None:
        self.benchmarks = all_benchmarks()
        reference = expected.load(self.name, self.expected_dir)
        self.rendered_sha256 = reference["rendered_sha256"]
        self.expected: Dict[str, Any] = {}
        for b in self.benchmarks:
            entry = reference["inputs"].get(b.name, {})
            unchanged = entry.get("input_sha256") == benchmark_input_digest(b)
            for kind in CONFIGS:
                # a changed input has no valid reference: its ops fail
                self.expected[f"{b.name}/{kind}"] = (
                    entry["configs"][kind] if unchanged else None)

    # -- one pass -------------------------------------------------------
    def run_pass(self, index: int, clock: Clock, tracer=None) -> None:
        def op(b, kind, base):
            result = run_config(b, Config(kind), base, tracer=tracer)
            result.parallel_origins()
            return result
        self._pass(index, clock, op)

    def run_pass_staged(self, index: int, clock: Clock) -> None:
        self._pass(index, clock,
                   lambda b, kind, base: self._staged_config(clock, b, kind,
                                                             base))

    def _pass(self, index: int, clock: Clock, op) -> None:
        """Every benchmark, in the pass's order, through ``op`` for each
        configuration; then Table II, rendered in registry order.  The
        staged and the un-staged op are held to the same references, so
        the decomposition is faithful or the op fails."""
        order = list(self.benchmarks)
        self.rng(index).shuffle(order)
        with clock.work("bench.clear_caches"):
            clear_program_cache()
            clear_base_cache()
        outcomes: Dict[str, Dict[str, Any]] = {}
        for b in order:
            with clock.work("fortran.parse"):
                base = prepare_base(b)
            self.count("fortran.parse_lines", sum(
                text.count("\n") for text in b.sources.values()))
            for kind in CONFIGS:
                op_id = f"{b.name}/{kind}"
                result = self.attempt(clock, op_id,
                                      lambda: op(b, kind, base))
                if result is None:
                    continue
                outcomes[op_id] = summarize(result)
                self.expect(op_id, outcomes[op_id], self.expected[op_id])
        if len(outcomes) != self.ops_per_pass:
            return  # a failed op already failed the run
        with clock.work("experiments.render"):
            rendered = render_table2(assemble_rows(self.benchmarks,
                                                   outcomes))
        if expected.sha256_text(rendered) != self.rendered_sha256:
            self.fail("render", "Table II differs from the reference")

    def _staged_config(self, clock: Clock, b: Benchmark, kind: str,
                       base) -> PipelineResult:
        """``run_config`` re-driven through the layers' public calls."""
        with clock.span("program.clone"):
            program = base.clone()
        registry = None
        if kind == "conventional":
            policy = conventional_policy(b)
            with clock.span("inlining.conventional"):
                inlined = ConventionalInliner(policy).run(program)
            self.count("inlining.sites_inlined", inlined.inlined_count)
        elif kind == "annotation":
            with clock.span("annotations.registry"):
                registry = b.registry()
            with clock.span("annotations.inline"):
                inlined = AnnotationInliner(registry).run(program)
            self.count("annotations.sites_inlined", inlined.inlined_count)
        with clock.span("polaris.run"):
            report = Polaris().run(program)
        polaris_counts(self, report)
        if registry is not None:
            with clock.span("annotations.reverse"):
                reverse = ReverseInliner(registry).run(program)
            self.count("annotations.sites_reversed", reverse.reversed_count)
        with clock.span("fortran.unparse"):
            code_lines = program.total_lines()
        self.count("fortran.unparse_lines", code_lines)
        result = PipelineResult(kind, program, report, code_lines)
        with clock.span("experiments.pipeline"):
            result.parallel_origins()
        return result

    def derived(self, layer_s, counts):
        return {
            "analysis.dep_cache_hit_ratio": dep_cache_hit_ratio(counts),
            "fortran.parse_lines_per_s": ratio(
                counts.get("fortran.parse_lines", 0),
                layer_s.get("fortran.parse_s", 0.0)),
            "annotations.reverse_ratio": ratio(
                counts.get("annotations.sites_reversed", 0),
                counts.get("annotations.sites_inlined", 0)),
        }

    def extras(self) -> Dict[str, float]:
        """IR size after conventional inlining, and what a live
        ``Tracer`` costs the pipeline."""
        lines_after = 0
        for b in self.benchmarks:
            program = prepare_base(b).clone()
            ConventionalInliner(conventional_policy(b)).run(program)
            lines_after += program.total_lines()
        on: List[float] = []
        off: List[float] = []
        for index in range(6):
            clock = Clock()
            clock.begin_pass()
            traced = index % 2 == 0
            self.run_pass(1000 + index // 2, clock,
                          tracer=Tracer(label="bench") if traced else None)
            (on if traced else off).append(clock.end_pass().norm_s)
        return {"inlining.lines_after": lines_after,
                "trace.enabled_overhead_ratio":
                    sorted(on)[1] / sorted(off)[1]}


def reference() -> Dict[str, Any]:
    """The references of every op, computed through the un-staged entry
    point (``--write-expected`` cross-checks them before saving)."""
    clear_program_cache()
    clear_base_cache()
    benchmarks = all_benchmarks()
    outcomes = {f"{b.name}/{kind}": summarize(run_config(b, Config(kind)))
                for b in benchmarks for kind in CONFIGS}
    inputs = {b.name: {"input_sha256": benchmark_input_digest(b),
                       "configs": {kind: outcomes[f"{b.name}/{kind}"]
                                   for kind in CONFIGS}}
              for b in benchmarks}
    rendered = render_table2(assemble_rows(benchmarks, outcomes))
    return {"workload": "table2", "rendered": rendered,
            "rendered_sha256": expected.sha256_text(rendered),
            "inputs": inputs}
