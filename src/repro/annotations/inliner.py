"""Annotation-based inlining (Section III-C1).

Replaces CALL sites whose callee has an annotation with a
:class:`~repro.fortran.ast.TaggedBlock` containing the translated
annotation body.  The tags (callee name, site id, recorded actuals)
survive parallelization and drive the reverse inliner.

Unlike conventional inlining, this transformation:

* needs no callee source (only the annotation) — external-library and
  recursive subroutines qualify;
* never linearizes caller arrays (the annotation's own shape declarations
  drive the subscript remapping);
* is applied even to opaque compositional subroutines like the paper's
  FSMP.

When the callee's source *is* present in the program, its COMMON blocks
are merged into the caller so that global names used by the annotation
resolve to the right arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.annotations.registry import AnnotationRegistry
from repro.annotations.translate import TranslateOptions, translate_call
from repro.errors import AnnotationError, InlineError
from repro.fortran import ast
from repro.program import Program


@dataclass
class AnnotationSite:
    caller: str
    callee: str
    site_id: int
    inlined: bool
    reason: str = ""


@dataclass
class AnnotationInlineResult:
    sites: List[AnnotationSite] = field(default_factory=list)

    @property
    def inlined_count(self) -> int:
        return sum(1 for s in self.sites if s.inlined)


@dataclass
class AnnotationInliner:
    registry: AnnotationRegistry
    options: TranslateOptions = field(default_factory=TranslateOptions)
    #: inline only call sites inside loop nests (the Polaris site filter);
    #: annotation inlining is cheap, so by default all sites are taken
    require_loop_context: bool = False

    def run(self, program: Program) -> AnnotationInlineResult:
        result = AnnotationInlineResult()
        counter = [0]
        for unit in program.units:
            self._unit(program, unit, result, counter)
        program.resolve({s.caller for s in result.sites if s.inlined})
        return result

    # ------------------------------------------------------------------
    def _unit(self, program: Program, unit: ast.ProgramUnit,
              result: AnnotationInlineResult, counter: List[int]) -> None:
        changed = [False]

        def process(body: List[ast.Stmt], in_loop: bool) -> List[ast.Stmt]:
            out: List[ast.Stmt] = []
            for s in body:
                if isinstance(s, ast.DoLoop):
                    s.body[:] = process(s.body, True)
                    out.append(s)
                elif isinstance(s, ast.IfBlock):
                    for _, arm in s.arms:
                        arm[:] = process(arm, in_loop)
                    out.append(s)
                elif isinstance(s, ast.CallStmt) \
                        and s.name.upper() in self.registry \
                        and (in_loop or not self.require_loop_context):
                    block = self._site(program, unit, s, result, counter)
                    if block is None:
                        out.append(s)
                    else:
                        out.append(block)
                        changed[0] = True
                else:
                    out.append(s)
            return out

        unit.body = process(unit.body, False)
        if changed[0]:
            program.invalidate(unit)

    # ------------------------------------------------------------------
    def _site(self, program: Program, caller: ast.ProgramUnit,
              call: ast.CallStmt, result: AnnotationInlineResult,
              counter: List[int]) -> Optional[ast.TaggedBlock]:
        ann = self.registry.get(call.name)
        assert ann is not None
        counter[0] += 1
        site_id = counter[0]
        try:
            self._merge_callee_commons(program, caller, call.name)
            translation = translate_call(
                ann, call.args, program.symtab(caller), site_id,
                self.options)
        except (AnnotationError, InlineError) as exc:
            result.sites.append(AnnotationSite(
                caller.name, call.name.upper(), site_id, False, str(exc)))
            return None
        self._merge_decls(caller, translation.decls)
        program.invalidate(caller)
        result.sites.append(AnnotationSite(
            caller.name, call.name.upper(), site_id, True))
        return ast.TaggedBlock(call.name.upper(), site_id,
                               ast.clone(call.args), translation.stmts,
                               call.label)

    def _merge_callee_commons(self, program: Program,
                              caller: ast.ProgramUnit,
                              callee_name: str) -> None:
        callee = program.procedures.get(callee_name.upper())
        if callee is None:
            return  # external library routine: only the annotation exists
        caller_blocks = {d.block.upper() for d in
                         caller.find_decls(ast.CommonDecl)}
        merged = False
        for d in callee.find_decls(ast.CommonDecl):
            if d.block.upper() not in caller_blocks:
                caller.decls.append(ast.clone(d))
                merged = True
        if merged:
            program.invalidate(caller)

    def _merge_decls(self, caller: ast.ProgramUnit,
                     decls: List[ast.Decl]) -> None:
        existing: Set[str] = set()
        for d in caller.decls:
            for e in getattr(d, "entities", []) or []:
                existing.add(e.name.upper())
        for d in decls:
            entities = getattr(d, "entities", None)
            if entities and all(e.name.upper() in existing
                                for e in entities):
                continue
            caller.decls.append(d)
            for e in entities or []:
                existing.add(e.name.upper())
