"""OpenMP directive utilities.

The directive *representation* lives in the AST
(:class:`~repro.fortran.ast.OmpParallelDo`); this module provides the
operations on top of it: enumerating and counting parallel loops.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.fortran import ast
from repro.program import Program


def parallel_loops(body: List[ast.Stmt]) -> Iterator[ast.OmpParallelDo]:
    for s in ast.walk_stmts(body):
        if isinstance(s, ast.OmpParallelDo):
            yield s


def count_directives(program: Program) -> int:
    return sum(1 for u in program.units for _ in parallel_loops(u.body))
