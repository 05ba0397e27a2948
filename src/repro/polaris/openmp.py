"""OpenMP directive utilities.

The directive *representation* lives in the AST
(:class:`~repro.fortran.ast.OmpParallelDo`); this module provides the
operations on top of it: enumerating parallel loops.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.fortran import ast


def parallel_loops(body: List[ast.Stmt]) -> Iterator[ast.OmpParallelDo]:
    for s in ast.walk_stmts(body):
        if isinstance(s, ast.OmpParallelDo):
            yield s

