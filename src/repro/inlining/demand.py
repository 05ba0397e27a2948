"""Demand-driven inlining (Way & Pollock, arXiv cs/0604043).

The up-front pipelines pay the inlining cost everywhere; demand-driven
inlining pays it only where the analyzer needs it.  The Polaris driver
carries a :class:`DemandInliner`; when legality analysis of a candidate
loop fails on an opaque CALL (:class:`~repro.trace.LoopDecision`
reason ``call``), it asks the inliner to *resolve* that callee inside
the loop, then re-analyzes.  Resolution prefers the cheap summary:

1. **annotation** — the callee has a (hand-written or inferred)
   annotation: every CALL site in the loop subtree is replaced with the
   translated :class:`~repro.fortran.ast.TaggedBlock`, exactly as the
   up-front :class:`~repro.annotations.inliner.AnnotationInliner` would,
   so the reverse inliner restores the calls afterwards;
2. **body** — no annotation, but the conventional-inlining profitability
   policy accepts the callee: the body is spliced in textually.  Sites
   whose binding plan would force caller-wide array linearization are
   refused (that rewrite rebuilds the loop out from under the driver);
3. **fallback** — neither applies: the call stays opaque, the loop
   stays serial, and the refusal reasons (inference + body policy) are
   recorded.

Every resolution emits a :class:`~repro.trace.decisions.SiteDecision`,
giving the per-site audit trail the paper's methodology discussion asks
for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.annotations.inliner import (AnnotationInlineResult,
                                       AnnotationInliner)
from repro.annotations.registry import AnnotationRegistry
from repro.annotations.translate import TranslateOptions
from repro.errors import InlineError
from repro.fortran import ast
from repro.inlining.conventional import ConventionalInliner
from repro.inlining.heuristics import InlinePolicy
from repro.program import Program
from repro.trace.decisions import SiteDecision
from repro.trace.tracer import NULL_TRACER


@dataclass
class DemandInliner:
    """Resolves opaque call sites on demand for the Polaris driver."""

    registry: AnnotationRegistry
    options: TranslateOptions = field(default_factory=TranslateOptions)
    policy: InlinePolicy = field(default_factory=InlinePolicy)
    #: outcomes from :func:`repro.annotations.infer.infer_annotations`,
    #: used to attribute sources and to surface refusal reasons
    inference: Optional[object] = None
    #: callee names whose annotations are hand-written (for attribution)
    hand_names: FrozenSet[str] = frozenset()
    #: every decision taken, in order (also sent to the tracer)
    decisions: List[SiteDecision] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._counter = [0]
        self._ann_inliner = AnnotationInliner(self.registry, self.options)
        self._ann_result = AnnotationInlineResult()
        self._body_inliner = ConventionalInliner(self.policy)
        #: (loop identity, callee) pairs already attempted — resolving
        #: the same pair twice cannot make progress
        self._attempted: Set[Tuple[int, str]] = set()

    # ------------------------------------------------------------------
    def resolve(self, program: Program, unit: ast.ProgramUnit,
                loop: ast.DoLoop, callee: str, tracer=None) -> bool:
        """Try to make ``callee`` transparent inside ``loop``.

        Returns True when the loop body changed (the caller must refresh
        its symbol table and re-analyze)."""
        tracer = tracer or NULL_TRACER
        callee = callee.upper()
        key = (id(loop), callee)
        if key in self._attempted:
            return False
        self._attempted.add(key)
        if callee in self.registry:
            return self._resolve_annotation(program, unit, loop, callee,
                                            tracer)
        return self._resolve_body(program, unit, loop, callee, tracer)

    # ------------------------------------------------------------------
    def _record(self, tracer, unit: ast.ProgramUnit, callee: str,
                site_id: int, action: str, source: str = "",
                reason: str = "") -> None:
        decision = SiteDecision(unit.name, callee, site_id, action,
                                source=source, reason=reason)
        self.decisions.append(decision)
        tracer.site(decision)

    def _infer_reason(self, callee: str) -> str:
        outcome = getattr(self.inference, "outcomes", {}).get(callee) \
            if self.inference is not None else None
        if outcome is not None and outcome.reason:
            return outcome.reason
        return "no annotation available"

    # ------------------------------------------------------------------
    def _resolve_annotation(self, program: Program, unit: ast.ProgramUnit,
                            loop: ast.DoLoop, callee: str, tracer) -> bool:
        source = "hand" if callee in self.hand_names else "inferred"
        changed = [False]
        sites_before = len(self._ann_result.sites)

        def make(call: ast.CallStmt) -> Optional[List[ast.Stmt]]:
            block = self._ann_inliner._site(program, unit, call,
                                            self._ann_result, self._counter)
            site = self._ann_result.sites[-1]
            if block is None:
                self._record(tracer, unit, callee, site.site_id,
                             "fallback", source=source,
                             reason=f"translation failed: {site.reason}")
                return None
            changed[0] = True
            self._record(tracer, unit, callee, site.site_id,
                         "annotation", source=source)
            return [block]

        loop.body[:] = self._rewrite_calls(loop.body, callee, make)
        if changed[0]:
            program.invalidate(unit)
            return True
        if len(self._ann_result.sites) == sites_before:
            # no CALL statement found: the opaque reference is a function
            self._record(tracer, unit, callee, 0, "fallback",
                         source=source,
                         reason="no CALL site (function reference)")
        return False

    # ------------------------------------------------------------------
    def _resolve_body(self, program: Program, unit: ast.ProgramUnit,
                      loop: ast.DoLoop, callee: str, tracer) -> bool:
        infer_reason = self._infer_reason(callee)
        rejection = self.policy.rejection_reason(program, None, callee,
                                                 in_loop=True)
        if rejection is not None:
            self._record(tracer, unit, callee, 0, "fallback",
                         reason=f"{infer_reason}; body: {rejection}")
            return False
        callee_unit = program.procedures[callee]
        changed = [False]

        def make(call: ast.CallStmt) -> Optional[List[ast.Stmt]]:
            self._counter[0] += 1
            site_id = self._counter[0]
            problem = self._plan_problem(program, unit, callee_unit, call,
                                         site_id)
            if problem is None:
                try:
                    stmts = self._body_inliner._expand(
                        program, unit, callee_unit, call, site_id, {})
                except InlineError as exc:
                    problem = f"binding: {exc}"
                else:
                    changed[0] = True
                    self._record(tracer, unit, callee, site_id, "body")
                    return stmts
            self._record(tracer, unit, callee, site_id, "fallback",
                         reason=f"{infer_reason}; body: {problem}")
            return None

        loop.body[:] = self._rewrite_calls(loop.body, callee, make)
        if changed[0]:
            program.invalidate(unit)
            return True
        return False

    def _plan_problem(self, program: Program, caller: ast.ProgramUnit,
                      callee: ast.ProgramUnit, call: ast.CallStmt,
                      site_id: int) -> Optional[str]:
        """Pre-flight the binding plan: demand expansion happens inside a
        loop the driver is holding, so plans that require rewriting the
        whole caller (array linearization) are refused up front."""
        from repro.inlining.binding import plan_bindings
        callee_table = program.symtab(callee)
        caller_table = program.symtab(caller)
        rename = self._body_inliner._local_rename_map(callee, callee_table,
                                                      site_id)
        try:
            plan = plan_bindings(callee.name, callee.params, call.args,
                                 callee_table, caller_table, rename,
                                 site_id)
        except InlineError as exc:
            return f"binding: {exc}"
        if plan.linearize_caller:
            return ("requires caller array linearization of "
                    + ", ".join(sorted(plan.linearize_caller)))
        return None

    # ------------------------------------------------------------------
    def _rewrite_calls(self, body: List[ast.Stmt], callee: str,
                       make) -> List[ast.Stmt]:
        """Replace each ``CALL callee`` in the subtree with ``make(call)``
        (kept verbatim when it returns None).  Mutates nested blocks in
        place so statement identities the driver holds stay valid."""
        out: List[ast.Stmt] = []
        for s in body:
            if isinstance(s, ast.CallStmt) and s.name.upper() == callee:
                replacement = make(s)
                if replacement is None:
                    out.append(s)
                else:
                    out.extend(replacement)
            else:
                if isinstance(s, ast.DoLoop):
                    s.body[:] = self._rewrite_calls(s.body, callee, make)
                elif isinstance(s, ast.IfBlock):
                    for _, arm in s.arms:
                        arm[:] = self._rewrite_calls(arm, callee, make)
                elif isinstance(s, ast.TaggedBlock):
                    s.body[:] = self._rewrite_calls(s.body, callee, make)
                elif isinstance(s, ast.OmpParallelDo):
                    s.loop.body[:] = self._rewrite_calls(s.loop.body,
                                                         callee, make)
                out.append(s)
        return out
