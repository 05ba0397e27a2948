"""The paper's Figure-15 sequence, once: resolve the annotations axis,
inline (conventional / annotation / on demand), run Polaris, reverse
inline.

:func:`parallelize_program` is the only place outside ``annotations/``,
``inlining/`` and ``polaris/`` that constructs an inliner or the driver
(a tier-1 test holds it there).  Every entry point is a shell over it:
``experiments.pipeline.run_config`` (cached base, clone, decision
stamping), ``fortran.fixedform.parallelize_source`` (strict or tolerant
parse, result dict), the CLI's ``parallelize``/``report``/``verify``,
the fuzz oracle's five axes and the service's payloads.

The three configurations:

* ``none`` — Polaris directly (no inlining);
* ``conventional`` — the Polaris default inliner, then Polaris;
* ``annotation`` — annotation-based inlining, Polaris, reverse inlining,
  with the annotations themselves ``hand``-written, ``inferred`` from
  callee bodies, or both merged and inlined on ``demand`` during
  dependence analysis (Way & Pollock: the analysis consults the inliner,
  per site).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Optional, Set

from repro.analysis.callgraph import build_callgraph
from repro.annotations.infer import ANNOTATION_MODES, infer_annotations
from repro.annotations.inliner import (AnnotationInlineResult,
                                       AnnotationInliner)
from repro.annotations.registry import AnnotationRegistry
from repro.annotations.reverse import ReverseInliner, ReverseResult
from repro.annotations.translate import TranslateOptions
from repro.inlining.conventional import ConventionalInliner, InlineResult
from repro.inlining.demand import DemandInliner
from repro.inlining.heuristics import InlinePolicy
from repro.polaris import Polaris, PolarisOptions, Report
from repro.polaris.report import merge_timings
from repro.program import Program
from repro.trace import NULL_TRACER, SiteDecision, Tracer

CONFIGS = ("none", "conventional", "annotation")


@dataclass(frozen=True)
class Config:
    kind: str = "none"
    polaris: PolarisOptions = field(default_factory=PolarisOptions)
    inline_policy: InlinePolicy = field(default_factory=InlinePolicy)
    translate: TranslateOptions = field(default_factory=TranslateOptions)
    #: the annotations axis (only meaningful for kind == "annotation"):
    #: "hand" uses the hand-written annotations up front;
    #: "inferred" replaces them with inferred ones (hand ignored);
    #: "demand" merges both (hand wins) and inlines on demand during
    #: dependence analysis instead of up front
    annotations: str = "hand"

    def __post_init__(self) -> None:
        # the one place names are checked: no entry point can run an
        # unknown configuration as if it were some other one
        if self.kind not in CONFIGS:
            raise ValueError(f"unknown config {self.kind!r}; "
                             f"expected one of {CONFIGS}")
        if self.annotations not in ANNOTATION_MODES:
            raise ValueError(
                f"unknown annotations mode {self.annotations!r}; "
                f"expected one of {ANNOTATION_MODES}")


@dataclass
class PipelineResult:
    config: str
    program: Program
    report: Report
    code_lines: int
    conventional_result: Optional[InlineResult] = None
    annotation_result: Optional[AnnotationInlineResult] = None
    reverse_result: Optional[ReverseResult] = None
    #: which annotations-axis value produced this result
    annotations: str = "hand"
    #: the registry that was inlined and reversed (hand or inferred)
    registry: Optional[AnnotationRegistry] = None
    #: the optimized source, every file concatenated, as unparsed when
    #: the pipeline finished (``code_lines`` counts its lines)
    output: str = ""
    #: lazily computed reachable-unit set (the callgraph of the finished
    #: program never changes afterwards, so one traversal serves every
    #: parallel_origins() call)
    _reachable: Optional[Set[str]] = field(default=None, repr=False)

    def reachable_units(self) -> Set[str]:
        if self._reachable is None:
            self._reachable = _reachable_units(self.program)
        return self._reachable

    def parallel_origins(self) -> Set[str]:
        """Origins parallelized in execution-reachable units."""
        reachable = self.reachable_units()
        return {v.origin for v in self.report.verdicts
                if v.parallelized and v.origin is not None
                and v.unit in reachable}


def _reachable_units(program: Program) -> Set[str]:
    graph = build_callgraph(program)
    roots = [u.name for u in program.units if u.kind == "PROGRAM"]
    seen: Set[str] = set(roots)
    stack = list(roots)
    while stack:
        name = stack.pop()
        for callee in graph.callees(name):
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return seen


def parallelize_program(program: Program, config: Config,
                        registry: Optional[AnnotationRegistry] = None, *,
                        unavailable: FrozenSet[str] = frozenset(),
                        tracer: Optional[Tracer] = None) -> PipelineResult:
    """Run ``config`` over ``program`` in place.

    ``registry`` holds the hand-written annotations (none when omitted);
    ``unavailable`` names procedures the inliners must treat as having
    no source (a benchmark's library units).  The phases ``infer``,
    ``inline`` and ``reverse`` are spans of ``tracer`` and, with the
    driver's ``normalize``/``summaries``/``dependence``, keys of the
    returned report's ``timings``.
    """
    tracer = tracer or NULL_TRACER
    registry = registry if registry is not None else AnnotationRegistry()
    policy = config.inline_policy
    if unavailable:
        policy = replace(policy,
                         unavailable=policy.unavailable | unavailable)
    timings: Dict[str, float] = {}
    conventional_result = None
    annotation_result = None
    reverse_result = None
    demand = None

    if config.kind == "conventional":
        with tracer.phase("inline", timings, kind="conventional"):
            conventional_result = ConventionalInliner(policy).run(program)
    elif config.kind == "annotation":
        if config.annotations != "hand":
            # "inferred" ignores the hand annotations; "demand" merges
            # both (hand wins) and leaves the inlining to Polaris
            hand = registry if config.annotations == "demand" else None
            with tracer.phase("infer", timings, mode=config.annotations):
                inference = infer_annotations(program, hand=hand)
                registry = inference.registry()
            if tracer.enabled:
                for name, reason in inference.fallbacks().items():
                    tracer.site(SiteDecision("", name, 0, "fallback",
                                             source="inferred",
                                             reason=reason))
            if hand is not None:
                demand = DemandInliner(registry, config.translate, policy,
                                       inference=inference,
                                       hand_names=frozenset(hand.names()))
        if demand is None:
            with tracer.phase("inline", timings, kind="annotation"):
                annotation_result = AnnotationInliner(
                    registry, config.translate).run(program)

    report = Polaris(config.polaris, demand=demand).run(program,
                                                        tracer=tracer)
    if demand is not None:
        annotation_result = demand._ann_result

    if config.kind == "annotation":
        with tracer.phase("reverse", timings):
            reverse_result = ReverseInliner(registry,
                                            config.translate).run(program)
    merge_timings(report.timings, timings)
    output = "".join(program.unparse().values())
    return PipelineResult(config.kind, program, report, output.count("\n"),
                          conventional_result, annotation_result,
                          reverse_result, config.annotations, registry,
                          output)
