"""The differential oracle: one generated program, three pipelines,
zero tolerated disagreements.

For a generated program the oracle establishes a **baseline** (serial
execution of the unmodified parse) and then, for each of the paper's
three configurations (``none`` / ``conventional`` / ``annotation``) run
through :func:`repro.pipeline.parallelize_program` — the function the
CLI, the experiments and the daemon run, not a copy of it — checks:

``crash``
    the pipeline itself must not raise (an unexpected exception in any
    inliner, Polaris, or the reverse inliner is a finding, not noise);
``config-semantics``
    serial execution of the transformed program equals the baseline —
    inlining, normalization and reverse inlining preserve meaning;
``parallel-divergence``
    :func:`repro.runtime.difftest.diff_test` passes — every loop the driver
    marked parallel computes the same state when its iterations run
    in-order-parallel and in a **permuted** schedule;
``backend-divergence``
    :func:`repro.runtime.difftest.backend_equivalence` — the compiled
    closure backend produces bit-identical output, cost, COMMON memory,
    stop/error messages and recorded region trees to the tree-walker in
    every execution mode;
``unparse-semantics``
    the unparsed transformed program re-parses and serially re-executes
    to the baseline (directives and restored CALLs survive the text
    round-trip);
``reverse-reanalysis``
    (annotation config only) the reverse-inlined output, stripped of
    OpenMP directives and re-run through the *same* annotation pipeline,
    re-analyzes to the same multiset of ``LoopDecision`` verdicts —
    reverse inlining is a fixpoint, not a lossy step;
``inferred-flip``
    the annotation config re-run with **inferred** annotations
    (:func:`repro.annotations.infer.infer_annotations`, ignoring the
    shipped hand-derived ones) must not parallelize any original loop
    the hand-annotation run left serial — inference may only lose
    precision, never invent parallelism.  Checked only when the inferred
    registry covers a subset of the hand registry's callees (always true
    for generated programs, whose "hand" annotations come from the same
    generator); the inferred and demand-driven pipelines additionally
    re-run the crash / config-semantics / parallel-divergence properties
    above.  Disable with ``REPRO_FUZZ_INFERENCE=0``.

Any violated property yields a :class:`Mismatch`; the campaign layer
treats one or more mismatches as a failing program and hands it to the
shrinker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Counter as CounterType
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.annotations import AnnotationRegistry
from repro.fortran import ast
from repro.pipeline import Config, parallelize_program
from repro.program import Program

# the runtime (and numpy with it) is imported at the three execution
# sites below, so importing the fuzz package to generate programs does
# not load it
if TYPE_CHECKING:
    from repro.runtime.interpreter import ExecutionResult

CONFIG_KINDS = ("none", "conventional", "annotation")

#: (unit, var, parallelized, reason) — the re-analysis fingerprint of one
#: loop verdict.  Origins are deliberately excluded: they are stamped by
#: position and reverse inlining may renumber them, but the *decisions*
#: must survive.
VerdictKey = Tuple[str, str, bool, str]


@dataclass(frozen=True)
class Mismatch:
    """One violated oracle property."""

    kind: str          # crash | config-semantics | parallel-divergence |
    #                  # backend-divergence | unparse-semantics |
    #                  # reverse-reanalysis | inferred-flip
    config: str        # which configuration exposed it
    detail: str = ""

    def describe(self) -> str:
        return f"[{self.config}] {self.kind}: {self.detail}"


@dataclass
class OracleResult:
    """The oracle's verdict on one program."""

    mismatches: List[Mismatch] = field(default_factory=list)
    configs_run: int = 0
    parallel_loops: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    @property
    def primary(self) -> Optional[Mismatch]:
        return self.mismatches[0] if self.mismatches else None

    def describe(self) -> str:
        if self.passed:
            return "all oracle properties hold"
        return "; ".join(m.describe() for m in self.mismatches)


def _serial(program: Program) -> ExecutionResult:
    from repro.runtime.interpreter import Interpreter
    return Interpreter(program, honor_directives=False).run()


def _inference_enabled() -> bool:
    import os
    return os.environ.get("REPRO_FUZZ_INFERENCE", "1").lower() \
        not in ("0", "false", "off")


def strip_omp(program: Program) -> None:
    """Unwrap every ``OmpParallelDo`` back to its plain loop, in place —
    the re-analysis input must look like ordinary source again."""
    def unwrap(s: ast.Stmt):
        if isinstance(s, ast.OmpParallelDo):
            return [s.loop]
        return None
    for unit in program.units:
        unit.body = ast.map_stmts(unit.body, unwrap)
    program.invalidate()


def verdict_fingerprint(report) -> CounterType[VerdictKey]:
    return Counter((v.unit, v.var, v.parallelized, v.reason)
                   for v in report.verdicts)


def _fingerprint_delta(first: CounterType[VerdictKey],
                       second: CounterType[VerdictKey]) -> str:
    gone = first - second
    new = second - first
    bits = []
    if gone:
        bits.append("lost " + ", ".join(
            f"{u}:DO {v} {'par' if p else 'serial(' + r + ')'}"
            for (u, v, p, r) in gone))
    if new:
        bits.append("gained " + ", ".join(
            f"{u}:DO {v} {'par' if p else 'serial(' + r + ')'}"
            for (u, v, p, r) in new))
    return "; ".join(bits)


def run_oracle(sources: Dict[str, str], annotations: str = "",
               configs: Tuple[str, ...] = CONFIG_KINDS) -> OracleResult:
    """Check every oracle property of the program in ``sources``."""
    result = OracleResult()

    try:
        baseline_prog = Program.from_sources(dict(sources), "fuzz")
        baseline = _serial(baseline_prog)
    except Exception as exc:  # generator bug, not a pipeline bug
        result.mismatches.append(Mismatch(
            "crash", "baseline", f"{type(exc).__name__}: {exc}"))
        return result

    annotation_origins = None
    for config in configs:
        work = Program.from_sources(dict(sources), "fuzz")
        try:
            report = parallelize_program(
                work, Config(config),
                AnnotationRegistry.from_text(annotations)).report
        except Exception as exc:
            result.mismatches.append(Mismatch(
                "crash", config, f"{type(exc).__name__}: {exc}"))
            continue
        result.configs_run += 1
        result.parallel_loops[config] = report.parallel_count()
        if config == "annotation":
            annotation_origins = frozenset(report.parallel_origins())

        # (a) semantic equivalence, (b) iteration-order independence
        mismatch = _check_execution(work, baseline, config)
        if mismatch is not None:
            result.mismatches.append(mismatch)
            continue

        # (b') backend equivalence: tree-walker vs compiled closures must
        # agree exactly (output, cost, COMMON bits, stop/error messages)
        # in every execution mode
        from repro.runtime.difftest import backend_equivalence
        divergence = backend_equivalence(work)
        if divergence is not None:
            result.mismatches.append(Mismatch(
                "backend-divergence", config, divergence))
            continue

        # text round-trip: unparse, reparse, serial == baseline
        try:
            reparsed = Program.from_sources(work.unparse(), "fuzz")
            rerun = _serial(reparsed)
        except Exception as exc:
            result.mismatches.append(Mismatch(
                "unparse-semantics", config,
                f"{type(exc).__name__}: {exc}"))
            continue
        if not baseline.memory_equal(rerun):
            result.mismatches.append(Mismatch(
                "unparse-semantics", config,
                "unparse/reparse changed serial semantics"))
            continue

        # (c) reverse-inliner round-trip fidelity
        if config == "annotation":
            mismatch = _check_reanalysis(reparsed, annotations, report)
            if mismatch is not None:
                result.mismatches.append(mismatch)

    if "annotation" in configs and _inference_enabled():
        _check_inference(sources, annotations, baseline,
                         annotation_origins, result)
    return result


def _check_inference(sources: Dict[str, str], annotations: str,
                     baseline: ExecutionResult, hand_origins,
                     result: OracleResult) -> None:
    """The inferred-annotations properties: re-run the annotation
    pipeline on the ``inferred`` and ``demand`` axes and hold them to
    the execution properties, plus the ``inferred-flip`` soundness
    subset check (see module docstring)."""
    try:
        hand_registry = AnnotationRegistry.from_text(annotations)
    except Exception:
        # unparseable hand annotations already yielded a crash mismatch
        # per configuration in the main loop; there is nothing sound to
        # compare inference against
        return
    hand_names = set(hand_registry.names())
    for mode in ("inferred", "demand"):
        work = Program.from_sources(dict(sources), "fuzz")
        try:
            run = parallelize_program(
                work, Config("annotation", annotations=mode), hand_registry)
        except Exception as exc:
            result.mismatches.append(Mismatch(
                "crash", mode, f"{type(exc).__name__}: {exc}"))
            continue
        report = run.report
        result.configs_run += 1
        result.parallel_loops[mode] = report.parallel_count()

        # soundness subset: inference must not out-parallelize the hand
        # run it is a restriction of (only meaningful when the inferred
        # registry covers no callee the hand registry misses)
        if mode == "inferred" and hand_origins is not None \
                and set(run.registry.names()) <= hand_names:
            flipped = sorted(report.parallel_origins() - hand_origins)
            if flipped:
                result.mismatches.append(Mismatch(
                    "inferred-flip", mode,
                    "inference parallelized loops the hand-annotation "
                    "run left serial: " + ", ".join(flipped)))
                continue

        mismatch = _check_execution(work, baseline, mode)
        if mismatch is not None:
            result.mismatches.append(mismatch)


def _check_execution(work: Program, baseline: ExecutionResult,
                     label: str) -> Optional[Mismatch]:
    """The execution properties every axis is held to:
    ``config-semantics`` (transformed, serial == baseline), then
    ``parallel-divergence`` (iteration-order independence of the
    parallel-marked loops)."""
    try:
        transformed = _serial(work)
    except Exception as exc:
        return Mismatch(
            "config-semantics", label,
            f"serial execution raised {type(exc).__name__}: {exc}")
    if not baseline.memory_equal(transformed):
        return Mismatch(
            "config-semantics", label,
            "serial execution of the transformed program diverges "
            "from the baseline")
    from repro.runtime.difftest import diff_test
    try:
        diff = diff_test(work)
    except Exception as exc:
        return Mismatch(
            "parallel-divergence", label,
            f"parallel execution raised {type(exc).__name__}: {exc}")
    if not diff.passed:
        return Mismatch("parallel-divergence", label, diff.explain())
    return None


def _check_reanalysis(reparsed: Program, annotations: str,
                      first_report) -> Optional[Mismatch]:
    """Strip directives from the reverse-inlined output and push it
    through the annotation pipeline again; the verdicts must agree."""
    strip_omp(reparsed)
    try:
        second = parallelize_program(
            reparsed, Config("annotation"),
            AnnotationRegistry.from_text(annotations)).report
    except Exception as exc:
        return Mismatch("reverse-reanalysis", "annotation",
                        f"re-analysis raised {type(exc).__name__}: {exc}")
    first_fp = verdict_fingerprint(first_report)
    second_fp = verdict_fingerprint(second)
    if first_fp != second_fp:
        return Mismatch("reverse-reanalysis", "annotation",
                        _fingerprint_delta(first_fp, second_fp))
    return None
