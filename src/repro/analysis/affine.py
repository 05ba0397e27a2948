"""Affine (linear) form extraction of array subscripts over loop indices.

An :class:`AffineForm` represents a subscript as

    sum_k  coeff_k * index_k  +  remainder

where ``coeff_k`` are integer constants and ``remainder`` is a polynomial
that does **not** mention any of the loop indices (neither directly nor
inside an atom).  Subscripts that cannot be written this way — products of
two indices, an index inside an array read (``A(IDX(I))``, the paper's
"subscripted subscript"), an index under a division — are *non-affine*:
:func:`extract` returns ``None`` and dependence analysis must assume a
dependence, which is precisely the conservatism that makes conventional
inlining lose parallelism in Section II-A of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.analysis.symbolic import Poly, from_expr, is_atom
from repro.fortran import ast


@dataclass(slots=True)
class AffineForm:
    """``sum(coeffs[v] * v) + remainder`` with remainder index-free.

    Immutable by contract: no field is assigned after construction (a
    frozen dataclass would pay for ``object.__setattr__`` on every one of
    the thousands built a pass); :meth:`key` fills its memo slot once."""

    coeffs: Dict[str, int]
    remainder: Poly
    _key: Optional[tuple] = field(default=None, init=False, repr=False,
                                  compare=False)

    def key(self) -> tuple:
        """Hashable identity of the form as the dependence tests see it:
        the index coefficients and the remainder polynomial's terms (every
        test decision flows from coefficient lookups and remainder
        differences).  Computed once per form."""
        if self._key is None:
            self._key = (tuple(sorted(self.coeffs.items())),
                         tuple(sorted(self.remainder.terms.items())))
        return self._key

    def coeff(self, var: str) -> int:
        return self.coeffs.get(var.upper(), 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c}*{v}" for v, c in sorted(self.coeffs.items()) if c]
        parts.append(repr(self.remainder))
        return "Affine(" + " + ".join(parts) + ")"


def extract(e: ast.Expr, index_vars: Sequence[str]) -> Optional[AffineForm]:
    """Extract the affine form of ``e`` over ``index_vars``.

    Returns None when ``e`` is non-affine in any of the index variables.
    """
    poly = from_expr(e)
    return from_poly(poly, index_vars)


def from_poly(poly: Poly,
              index_vars: Sequence[str]) -> Optional[AffineForm]:
    indices = {v.upper() for v in index_vars}
    coeffs: Dict[str, int] = {}
    remainder_terms: Dict[tuple, int] = {}
    for mono, c in poly.terms.items():
        touching = [t for t in mono if _mentions_index(t, indices, poly)]
        if not touching:
            remainder_terms[mono] = c
            continue
        # a monomial touching an index must be exactly (index,) — a single
        # occurrence of the bare index variable
        if len(mono) == 1 and mono[0] in indices:
            var = mono[0]
            coeffs[var] = coeffs.get(var, 0) + c
            continue
        return None  # index*index, index*symbol, or index inside an atom
    remainder = Poly(remainder_terms, dict(poly.atom_names))
    return AffineForm(coeffs, remainder)


def _mentions_index(token: str, indices: set, poly: Poly) -> bool:
    if token in indices:
        return True
    if is_atom(token):
        inside = poly.atom_names.get(token, frozenset())
        return bool(inside & indices)
    return False
