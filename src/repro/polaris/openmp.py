"""OpenMP directive utilities.

The directive *representation* lives in the AST
(:class:`~repro.fortran.ast.OmpParallelDo`); this module provides the
operations on top of it: enumerating and counting parallel loops, and
checking clause well-formedness.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.errors import SemanticError
from repro.fortran import ast
from repro.program import Program

#: reduction operators OpenMP (and our runtime) accept
REDUCTION_OPS = {"+", "*", "MAX", "MIN"}


def parallel_loops(body: List[ast.Stmt]) -> Iterator[ast.OmpParallelDo]:
    for s in ast.walk_stmts(body):
        if isinstance(s, ast.OmpParallelDo):
            yield s


def count_directives(program: Program) -> int:
    return sum(1 for u in program.units for _ in parallel_loops(u.body))


def validate(omp: ast.OmpParallelDo) -> None:
    """Reject malformed clause sets before they reach the unparser or the
    runtime simulator."""
    seen = set()
    for name in omp.private:
        if name in seen:
            raise SemanticError(f"duplicate PRIVATE({name})")
        seen.add(name)
    for op, var in omp.reductions:
        if op.upper() not in REDUCTION_OPS:
            raise SemanticError(f"unsupported REDUCTION operator {op!r}")
        if var in seen:
            raise SemanticError(
                f"{var} appears in both PRIVATE and REDUCTION")
        seen.add(var)
    if omp.loop.var.upper() in seen:
        raise SemanticError(
            f"loop index {omp.loop.var} must not appear in clauses")
