"""Inlining candidate selection — the Polaris default policy.

From the paper, Section II: "The default strategy inlines a procedure
call only when the procedure contains no I/O and not many statements
(<= 150 by default) and when the invocation is inside a loop nest", and
Section II-B1: "Conventional inlining typically leaves out subroutines
that make additional non-trivial procedure calls".

Additional hard requirements of the transformation itself (not tunable):
no recursion, no mid-body RETURN, no SAVE'd locals, source available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.analysis.callgraph import CallGraph
from repro.analysis.defuse import collect_accesses
from repro.fortran import ast
from repro.program import Program


@dataclass(frozen=True)
class InlinePolicy:
    max_statements: int = 150
    allow_io: bool = False
    allow_calls: bool = False
    require_loop_context: bool = True
    #: procedures whose source counts as unavailable although the
    #: program holds it (a benchmark's external-library units)
    unavailable: FrozenSet[str] = frozenset()

    def rejection_reason(self, program: Program, graph: CallGraph,
                         callee_name: str,
                         in_loop: bool) -> Optional[str]:
        """None when the site should be inlined, else a reason string."""
        callee_name = callee_name.upper()
        if callee_name in self.unavailable:
            return "no-source"
        if self.require_loop_context and not in_loop:
            return "not-in-loop"
        callee = program.procedures.get(callee_name)
        if callee is None:
            return "no-source"  # external library: the paper's key gap
        if callee.kind != "SUBROUTINE":
            return "function"
        if graph.is_recursive(callee_name):
            return "recursive"
        if ast.count_statements(callee.body) > self.max_statements:
            return "too-large"
        acc = collect_accesses(callee.body, program.symtab(callee))
        if not self.allow_calls:
            if acc.has_call:
                return "makes-calls"
            from repro.fortran.intrinsics import is_intrinsic
            for e in ast.walk_all_exprs(callee.body):
                if isinstance(e, ast.FuncRef) and not is_intrinsic(e.name):
                    return "makes-calls"
        if acc.has_io and not self.allow_io:
            return "io"
        if _has_mid_return(callee.body):
            return "mid-return"
        if any(isinstance(d, ast.SaveDecl) for d in callee.decls):
            return "save"
        if acc.has_goto:
            return "goto"
        if acc.has_opaque:
            # ENTRY points (multiple entries cannot be spliced) or
            # unlowered tolerant-frontend statements
            return "unanalyzable"
        if any(isinstance(d, ast.EquivalenceDecl) for d in callee.decls):
            # splicing renames locals, which breaks storage association
            return "equivalence"
        if any(isinstance(s, ast.Return) and s.alt is not None
               for s in ast.walk_stmts(callee.body)):
            return "alternate-return"
        return None


def _has_mid_return(body: list) -> bool:
    """RETURN anywhere except as the final top-level statement."""
    returns = [s for s in ast.walk_stmts(body) if isinstance(s, ast.Return)]
    if not returns:
        return False
    if len(returns) > 1:
        return True
    return not (body and body[-1] is returns[0])
