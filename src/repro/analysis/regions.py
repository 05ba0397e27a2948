"""Array region (section) representation and coverage reasoning.

A :class:`Region` is a per-dimension list of symbolic ``[lo, hi]`` ranges
(:class:`~repro.analysis.symbolic.Poly` bounds).  Regions support the two
operations the array-kill analysis needs:

* **projection** over an inner loop: a reference ``A(J)`` inside
  ``DO J = 1, M`` aggregates to the region ``A(1:M)``;
* **coverage**: does a written region provably contain a read region?
  Provability is per-dimension: the bound difference must simplify to a
  constant of the right sign (equal symbolic bounds therefore cover each
  other, while ``1:NNPED`` does not provably cover ``1:NNPS`` — the exact
  kill-analysis failure mode the paper's Section II-B3 describes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.affine import from_poly
from repro.analysis.symbolic import Poly, from_expr
from repro.fortran import ast
from repro.fortran.symbols import VarInfo


@dataclass(frozen=True)
class Dim:
    """One dimension of a region; ``None`` bounds are unknown/unbounded."""

    lo: Optional[Poly]
    hi: Optional[Poly]

    @staticmethod
    def point(p: Poly) -> "Dim":
        return Dim(p, p)

    @staticmethod
    def unknown() -> "Dim":
        return Dim(None, None)


@dataclass(frozen=True)
class Region:
    dims: Tuple[Dim, ...]

    @staticmethod
    def whole_array(info: VarInfo) -> "Region":
        """The declared extent of an array (unknown for assumed-size)."""
        dims: List[Dim] = []
        for d in info.dims or ():
            lo = from_expr(d.lower)
            hi = from_expr(d.upper) if d.upper is not None else None
            dims.append(Dim(lo, hi))
        return Region(tuple(dims))

    def covers(self, other: "Region") -> bool:
        """Provably ``self`` contains ``other`` (conservative)."""
        if len(self.dims) != len(other.dims):
            return False
        for mine, theirs in zip(self.dims, other.dims):
            if not _bound_le(mine.lo, theirs.lo):
                return False
            if not _bound_ge(mine.hi, theirs.hi):
                return False
        return True


def _bound_le(a: Optional[Poly], b: Optional[Poly]) -> bool:
    """Provably a <= b."""
    if a is None or b is None:
        return False
    diff = (b - a).constant_value()
    return diff is not None and diff >= 0


def _bound_ge(a: Optional[Poly], b: Optional[Poly]) -> bool:
    if a is None or b is None:
        return False
    diff = (a - b).constant_value()
    return diff is not None and diff >= 0


def ref_region(subs: Sequence[ast.Expr], info: VarInfo) -> Region:
    """Region of a single reference ``A(subs)``.

    * an empty subscript list (whole-array reference) is the declared
      extent;
    * a :class:`~repro.fortran.ast.RangeExpr` subscript is a section whose
      missing bounds default to the declared bounds of that dimension.
    """
    if not subs:
        return Region.whole_array(info)
    dims: List[Dim] = []
    declared = info.dims or ()
    for k, sub in enumerate(subs):
        if isinstance(sub, ast.RangeExpr):
            if sub.step is not None:
                dims.append(Dim.unknown())
                continue
            lo = from_expr(sub.lo) if sub.lo is not None else (
                from_expr(declared[k].lower) if k < len(declared) else None)
            if sub.hi is not None:
                hi: Optional[Poly] = from_expr(sub.hi)
            elif k < len(declared) and declared[k].upper is not None:
                hi = from_expr(declared[k].upper)
            else:
                hi = None
            dims.append(Dim(lo, hi))
        else:
            dims.append(Dim.point(from_expr(sub)))
    return Region(tuple(dims))


def project_over_loop(region: Region, loop: ast.DoLoop) -> Region:
    """Aggregate a region over all iterations of an inner loop.

    Each bound affine in the loop variable with coefficient +-1 maps to the
    range swept by the loop (assumed step 1 upward); any other dependence
    on the loop variable makes that dimension unknown.
    """
    var = loop.var.upper()
    start = from_expr(loop.start)
    stop = from_expr(loop.stop)
    step_const = from_expr(loop.step).constant_value() if loop.step else 1
    dims: List[Dim] = []
    for d in region.dims:
        lo = _project_bound(d.lo, var, start, stop, step_const, is_lo=True)
        hi = _project_bound(d.hi, var, start, stop, step_const, is_lo=False)
        dims.append(Dim(lo, hi))
    return Region(tuple(dims))


def projected_region(subs: Sequence[ast.Expr], info: VarInfo,
                     loops: Sequence[ast.DoLoop]) -> Region:
    """Region of ``A(subs)`` aggregated over every iteration of the DO
    ``loops`` enclosing the reference (outermost first)."""
    region = ref_region(subs, info)
    for loop in reversed(loops):
        region = project_over_loop(region, loop)
    return region


def _project_bound(bound: Optional[Poly], var: str, start: Poly, stop: Poly,
                   step: Optional[int], is_lo: bool) -> Optional[Poly]:
    if bound is None:
        return None
    if var not in bound.names_mentioned():
        return bound
    if step != 1:
        return None
    form = from_poly(bound, [var])
    if form is None:
        return None
    c = form.coeff(var)
    if c == 1:
        chosen = start if is_lo else stop
    elif c == -1:
        chosen = stop if is_lo else start
    else:
        return None
    return form.remainder + chosen.scale(c)
