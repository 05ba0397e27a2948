"""Loop nest discovery and bound evaluation.

Provides the parallelizer's view of a program unit's loops: every
:class:`~repro.fortran.ast.DoLoop` with its nesting context, a stable
*origin identity* that survives inlining (so Table II can count each
original loop once even when inlining duplicates it), and constant bound
extraction through the symbolic layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.analysis.symbolic import from_expr
from repro.analysis.dependence import LoopCtx
from repro.fortran import ast


@dataclass
class LoopInfo:
    """One DO loop with its nesting context inside a unit body."""

    loop: ast.DoLoop
    #: enclosing loops, outermost first (not including ``loop``)
    enclosing: List[ast.DoLoop] = field(default_factory=list)
    #: chain of TaggedBlock callees the loop sits inside (annotation code)
    tag_path: Tuple[str, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.enclosing)

    @property
    def index_vars(self) -> List[str]:
        return [lp.var for lp in self.enclosing] + [self.loop.var]

    @property
    def origin(self) -> Optional[str]:
        return getattr(self.loop, "origin", None)


def iter_loops(body: List[ast.Stmt],
               enclosing: Optional[List[ast.DoLoop]] = None,
               tag_path: Tuple[str, ...] = ()) -> Iterator[LoopInfo]:
    """Yield every loop in ``body`` with context, outer loops first."""
    enclosing = enclosing or []
    for s in body:
        if isinstance(s, ast.DoLoop):
            yield LoopInfo(s, list(enclosing), tag_path)
            yield from iter_loops(s.body, enclosing + [s], tag_path)
        elif isinstance(s, ast.OmpParallelDo):
            yield LoopInfo(s.loop, list(enclosing), tag_path)
            yield from iter_loops(s.loop.body, enclosing + [s.loop], tag_path)
        elif isinstance(s, ast.IfBlock):
            for _, arm in s.arms:
                yield from iter_loops(arm, enclosing, tag_path)
        elif isinstance(s, ast.TaggedBlock):
            yield from iter_loops(s.body, enclosing,
                                  tag_path + (s.callee,))


def assign_origins(unit: ast.ProgramUnit) -> None:
    """Stamp every loop in ``unit`` with a stable origin id ``UNIT:n``.

    Origins survive :func:`repro.fortran.ast.clone` (it copies a node's
    whole ``__dict__``, fields or not) and every structural rebuild
    (:func:`repro.fortran.ast.copy_loop_meta`), which is how inlined
    copies of a loop remain attributable to the original — the counting
    rule Table II uses.
    """
    from repro.naming import is_generated_name
    n = 0
    for info in iter_loops(unit.body):
        if is_generated_name(info.loop.var):
            continue  # annotation-generated loops are not original loops
        if not hasattr(info.loop, "origin"):
            info.loop.origin = f"{unit.name}:{n}"  # type: ignore[attr-defined]
        n += 1


def const_int(e: ast.Expr) -> Optional[int]:
    """Evaluate ``e`` to an integer constant if possible."""
    return from_expr(e).constant_value()


def loop_ctx(loop: ast.DoLoop) -> LoopCtx:
    """Dependence-test context for a (step-1) loop.  Loops with a non-unit
    or symbolic step get unknown bounds, which keeps every test
    conservative."""
    step = const_int(loop.step) if loop.step is not None else 1
    if step != 1:
        return LoopCtx(loop.var, None, None)
    return LoopCtx(loop.var, const_int(loop.start), const_int(loop.stop))


def trip_count(loop: ast.DoLoop) -> Optional[int]:
    """Constant trip count, if all of start/stop/step are constant."""
    start = const_int(loop.start)
    stop = const_int(loop.stop)
    step = const_int(loop.step) if loop.step is not None else 1
    if start is None or stop is None or step is None or step == 0:
        return None
    return max(0, (stop - start + step) // step)
