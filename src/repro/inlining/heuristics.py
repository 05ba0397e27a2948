"""Inlining candidate selection — the Polaris default policy.

From the paper, Section II: "The default strategy inlines a procedure
call only when the procedure contains no I/O and not many statements
(<= 150 by default) and when the invocation is inside a loop nest", and
Section II-B1: "Conventional inlining typically leaves out subroutines
that make additional non-trivial procedure calls".

Additional hard requirements of the transformation itself (not tunable):
no mid-body RETURN, no SAVE'd locals, source available.  A recursive
procedure calls one, so it is refused with every other caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Optional

from repro.analysis.callgraph import CallGraph
from repro.analysis.defuse import collect_accesses
from repro.fortran import ast
from repro.program import Program


@dataclass(frozen=True)
class InlinePolicy:
    max_statements: int = 150
    #: procedures whose source counts as unavailable although the
    #: program holds it (a benchmark's external-library units)
    unavailable: FrozenSet[str] = frozenset()

    def rejection_reason(self, program: Program, graph: Optional[CallGraph],
                         callee_name: str,
                         in_loop: bool) -> Optional[str]:
        """None when the site should be inlined, else a reason string.
        No refusal reads ``graph``; it stays for subclasses' signature."""
        return next(self.refusals(program, graph, callee_name, in_loop),
                    None)

    def refusals(self, program: Program, graph: Optional[CallGraph],
                 callee_name: str, in_loop: bool) -> Iterator[str]:
        """Every reason not to inline the site, in check order (lazily:
        a caller taking the first pays for no later check)."""
        callee_name = callee_name.upper()
        if callee_name in self.unavailable:
            yield "no-source"
        if not in_loop:
            yield "not-in-loop"
        callee = program.procedures.get(callee_name)
        if callee is None:
            yield "no-source"  # external library: the paper's key gap
            return
        if callee.kind != "SUBROUTINE":
            yield "function"
        if ast.count_statements(callee.body) > self.max_statements:
            yield "too-large"
        acc = collect_accesses(callee.body, program.symtab(callee))
        if acc.callees:
            yield "makes-calls"
        if acc.has_io:
            yield "io"
        if _has_mid_return(callee.body):
            yield "mid-return"
        if any(isinstance(d, ast.SaveDecl) for d in callee.decls):
            yield "save"
        if acc.has_goto:
            yield "goto"
        if acc.has_opaque:
            # ENTRY points (multiple entries cannot be spliced) or
            # unlowered tolerant-frontend statements
            yield "unanalyzable"
        if any(isinstance(d, ast.EquivalenceDecl) for d in callee.decls):
            # splicing renames locals, which breaks storage association
            yield "equivalence"
        if acc.has_alt_return:
            yield "alternate-return"


def _has_mid_return(body: list) -> bool:
    """RETURN anywhere except as the final top-level statement."""
    returns = [s for s in ast.walk_stmts(body) if isinstance(s, ast.Return)]
    if not returns:
        return False
    if len(returns) > 1:
        return True
    return not (body and body[-1] is returns[0])
