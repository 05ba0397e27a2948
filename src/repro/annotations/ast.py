"""AST for the Figure-12 annotation language.

Expressions reuse the Fortran expression nodes
(:mod:`repro.fortran.ast`) plus two special operators:

* :class:`Unknown` — ``unknown(e1, ..., en)``: the result is computed from
  the operands in an arbitrary (unmodelled) way;
* :class:`Unique` — ``unique(x1, ..., xn)``: the result is a one-to-one
  function of the operands.

Array references in annotation source use ``[ ]`` brackets and may contain
Fortran-90 style regions (``*`` or ``lo:hi``); both parse into the
ordinary :class:`~repro.fortran.ast.ArrayRef`/:class:`~repro.fortran.ast.RangeExpr`
nodes so the translation layer can share machinery with the frontend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.fortran import ast as fast


@dataclass(eq=True, slots=True)
class Unknown(fast.Expr):
    args: Tuple[fast.Expr, ...]


@dataclass(eq=True, slots=True)
class Unique(fast.Expr):
    args: Tuple[fast.Expr, ...]


class AnnStmt:
    __slots__ = ()


@dataclass(eq=True)
class AAssign(AnnStmt):
    """Assignment; ``targets`` has several entries for the
    ``(a, b, c) = unknown(...)`` form."""

    targets: Tuple[fast.Expr, ...]
    value: fast.Expr


@dataclass(eq=True)
class AIf(AnnStmt):
    cond: fast.Expr
    then: List[AnnStmt]
    els: List[AnnStmt]


@dataclass(eq=True)
class ADo(AnnStmt):
    var: str
    start: fast.Expr
    stop: fast.Expr
    step: Optional[fast.Expr]
    body: List[AnnStmt]


@dataclass(eq=True)
class ADecl(AnnStmt):
    """``integer I, J;`` or ``dimension M1[L,M], M2[M,N];``  — typename is
    '' for bare DIMENSION declarations."""

    typename: str
    entities: List[fast.Entity]


@dataclass(eq=True)
class AReturn(AnnStmt):
    value: Optional[fast.Expr]


@dataclass(eq=True)
class ASubroutine:
    name: str
    params: List[str]
    body: List[AnnStmt]

    def declared_dims(self) -> dict:
        """Formal/global array shapes declared in the annotation."""
        dims = {}
        for s in self.body:
            if isinstance(s, ADecl):
                for e in s.entities:
                    if e.dims is not None:
                        dims[e.name.upper()] = e.dims
        return dims


def walk_ann_exprs(stmts: List[AnnStmt]):
    """Yield every expression node in an annotation statement list."""
    for s in stmts:
        if isinstance(s, AAssign):
            for t in s.targets:
                yield from fast.walk_expr(t)
            yield from fast.walk_expr(s.value)
        elif isinstance(s, AIf):
            yield from fast.walk_expr(s.cond)
            yield from walk_ann_exprs(s.then)
            yield from walk_ann_exprs(s.els)
        elif isinstance(s, ADo):
            yield from fast.walk_expr(s.start)
            yield from fast.walk_expr(s.stop)
            if s.step is not None:
                yield from fast.walk_expr(s.step)
            yield from walk_ann_exprs(s.body)
        elif isinstance(s, AReturn) and s.value is not None:
            yield from fast.walk_expr(s.value)


# register the extra expression nodes with the Fortran walker so
# walk_expr sees their children (map_expr does not descend into them)
fast._EXPR_CHILD_FIELDS[Unknown] = ("args",)
fast._EXPR_CHILD_FIELDS[Unique] = ("args",)
