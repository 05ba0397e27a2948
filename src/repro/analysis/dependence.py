"""Data dependence testing for affine subscript pairs.

The tester answers the question the parallelizer asks: *may two references
to the same array access the same element, under a given direction
constraint for each enclosing loop?*  It layers the classic test family the
Polaris literature describes:

* **ZIV** — both subscripts loop-invariant: dependence iff the symbolic
  difference is (or may be) zero;
* **GCD** — the gcd of the index coefficients must divide the constant
  difference;
* **Banerjee bounds** — the real-valued extreme of the subscript difference
  over the constrained iteration space must straddle zero.  We compute the
  extrema exactly by evaluating the (linear) difference at the vertices of
  the per-variable constraint polytopes (segment for ``=``, triangle for
  ``<``, rectangle for ``*``), with unknown loop bounds widening to
  infinity — widening is conservative because it can only *fail to
  disprove* a dependence.

All answers are conservative: ``True`` means "dependence cannot be ruled
out".  A dimension whose subscript is non-affine (``None`` affine form)
contributes no disproof, reproducing the behaviour on which the paper's
Section II-A pathologies rest.

Direction constraints are per-loop-variable: ``'='`` (same iteration),
``'<'`` (source iteration strictly earlier), ``'*'`` (unconstrained).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.affine import AffineForm

INF = math.inf


@dataclass(frozen=True)
class LoopCtx:
    """One enclosing loop: its index variable and constant bounds when
    known (``None`` = unknown/symbolic).  Loops are assumed normalized to
    step 1 by the caller; a loop with a non-unit or symbolic step should be
    passed with unknown bounds."""

    var: str
    lower: Optional[int] = None
    upper: Optional[int] = None


@dataclass
class TestStats:
    """Counts of which test disproved dependences (for the ablation
    benchmarks).

    The per-test counters count *unique* queries: a query answered from
    the memo table bumps ``cache_hits`` instead, so ablation outputs keep
    reporting how many distinct dependence problems each test solved.
    """

    ziv_independent: int = 0
    gcd_independent: int = 0
    banerjee_independent: int = 0
    assumed_dependent: int = 0
    #: repeated queries answered from the per-tester memo table
    cache_hits: int = 0
    # attempt counters: how many times each test family *ran* (per
    # subscript dimension) — kills/attempts is the family's kill rate in
    # the --profile report
    ziv_attempts: int = 0
    gcd_attempts: int = 0
    banerjee_attempts: int = 0

    def unique_queries(self) -> int:
        return (self.ziv_independent + self.gcd_independent
                + self.banerjee_independent + self.assumed_dependent)


@dataclass
class DependenceTester:
    """Configurable dependence tester.

    ``use_banerjee`` exists for the ablation study (GCD-only mode).
    Each family is one method (:meth:`_ziv`, :meth:`_gcd`,
    :meth:`_banerjee`) answering ``False`` when it disproves the
    dimension's dependence.
    """

    use_banerjee: bool = True
    stats: TestStats = field(default_factory=TestStats)
    #: canonicalized query -> answer; the parallelizer asks the same
    #: question for every pair of references to the same array in a nest,
    #: so whole-suite runs repeat most queries several times
    _memo: Dict[tuple, bool] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def may_depend(self,
                   subs_a: Sequence[Optional[AffineForm]],
                   subs_b: Sequence[Optional[AffineForm]],
                   loops: Sequence[LoopCtx],
                   dirs: Dict[str, str]) -> bool:
        """May references with per-dimension affine forms ``subs_a`` and
        ``subs_b`` touch the same element under ``dirs``?

        Subscript lists of unequal length (a reshaped pair) provide no
        per-dimension information and are assumed dependent.

        Answers are memoized on the canonicalized query; ``stats``
        records hits separately from unique queries (see
        :class:`TestStats`).
        """
        key = _query_key(subs_a, subs_b, loops, dirs)
        if key in self._memo:
            self.stats.cache_hits += 1
            return self._memo[key]
        answer = self._may_depend_uncached(subs_a, subs_b, loops, dirs)
        self._memo[key] = answer
        return answer

    def _may_depend_uncached(self,
                             subs_a: Sequence[Optional[AffineForm]],
                             subs_b: Sequence[Optional[AffineForm]],
                             loops: Sequence[LoopCtx],
                             dirs: Dict[str, str]) -> bool:
        if len(subs_a) != len(subs_b):
            self.stats.assumed_dependent += 1
            return True
        for fa, fb in zip(subs_a, subs_b):
            # a non-affine dimension (None) carries no information
            if fa is not None and fb is not None \
                    and not self._dimension_dep(fa, fb, loops, dirs):
                return False
        self.stats.assumed_dependent += 1
        return True

    # ------------------------------------------------------------------
    def _dimension_dep(self, fa: AffineForm, fb: AffineForm,
                       loops: Sequence[LoopCtx],
                       dirs: Dict[str, str]) -> bool:
        delta = fb.remainder - fa.remainder  # solve sum(contribs) == delta
        dc = delta.constant_value()
        if dc is None:
            return True  # symbolic constant difference: cannot disprove

        involved: List[Tuple[LoopCtx, int, int, str]] = []
        for lp in loops:
            a = fa.coeff(lp.var)
            b = fb.coeff(lp.var)
            if a == 0 and b == 0:
                continue
            involved.append((lp, a, b, dirs.get(lp.var, "*")))
        # coefficients on variables not in `loops` (e.g. indices of loops
        # inner to one reference) are treated as unconstrained
        extra_vars = (set(fa.coeffs) | set(fb.coeffs)) - {
            lp.var for lp in loops}
        for v in extra_vars:
            a = fa.coeff(v)
            b = fb.coeff(v)
            if a == 0 and b == 0:
                continue
            involved.append((LoopCtx(v, None, None), a, b, "*"))

        if not involved:
            return self._ziv(dc)
        if not self._gcd(involved, dc):
            return False
        if not self.use_banerjee:
            return True
        return self._banerjee(involved, dc)

    def _ziv(self, dc: int) -> bool:
        """Both subscripts loop-invariant: dependent iff they are equal."""
        self.stats.ziv_attempts += 1
        if dc != 0:
            self.stats.ziv_independent += 1
            return False
        return True

    def _gcd(self, involved: List[Tuple[LoopCtx, int, int, str]],
             dc: int) -> bool:
        """The gcd of the index coefficients must divide ``dc``."""
        self.stats.gcd_attempts += 1
        g = 0
        for lp, a, b, d in involved:
            if d == "=":
                g = math.gcd(g, abs(a - b))
            else:
                g = math.gcd(g, math.gcd(abs(a), abs(b)))
        if g > 0 and dc % g != 0:
            self.stats.gcd_independent += 1
            return False
        if g == 0 and dc != 0:
            # every involved var contributes exactly zero (a==b under '='):
            # a degenerate ZIV disproof discovered by the GCD machinery
            self.stats.ziv_attempts += 1
            self.stats.ziv_independent += 1
            return False
        return True

    def _banerjee(self, involved: List[Tuple[LoopCtx, int, int, str]],
                  dc: int) -> bool:
        """Banerjee bounds via polytope vertices: ``dc`` must lie within
        the extremes of the subscript difference."""
        self.stats.banerjee_attempts += 1
        lo_total, hi_total = 0.0, 0.0
        for lp, a, b, d in involved:
            lo, hi = _contribution_bounds(a, b, d, lp.lower, lp.upper)
            lo_total += lo
            hi_total += hi
        if dc < lo_total or dc > hi_total:
            self.stats.banerjee_independent += 1
            return False
        return True


# ---------------------------------------------------------------------------
# query canonicalization for the memo table
# ---------------------------------------------------------------------------

def _query_key(subs_a: Sequence[Optional[AffineForm]],
               subs_b: Sequence[Optional[AffineForm]],
               loops: Sequence[LoopCtx],
               dirs: Dict[str, str]) -> tuple:
    return (tuple([None if f is None else f.key() for f in subs_a]),
            tuple([None if f is None else f.key() for f in subs_b]),
            tuple((lp.var, lp.lower, lp.upper) for lp in loops),
            tuple(sorted(dirs.items())))


# ---------------------------------------------------------------------------
# per-variable contribution bounds
# ---------------------------------------------------------------------------

def _contribution_bounds(a: int, b: int, direction: str,
                         lower: Optional[int],
                         upper: Optional[int]) -> Tuple[float, float]:
    """Bounds of ``a*i - b*i'`` under the direction constraint, with
    ``i, i' in [lower, upper]`` (unknown bounds widen to +-inf)."""
    L: float = lower if lower is not None else -INF
    U: float = upper if upper is not None else INF
    if direction == "=":
        t = a - b
        return _linear_bounds(t, L, U)
    if direction == "<":
        # triangle L <= i, i+1 <= i', i' <= U; vertices expressed
        # symbolically as (bound, offset) so unknown bounds never produce
        # inf - inf: (L, L+1), (L, U), (U-1, U)
        vertices = [(("L", 0), ("L", 1)), (("L", 0), ("U", 0)),
                    (("U", -1), ("U", 0))]
        lo, hi = INF, -INF
        for vi, vj in vertices:
            vmin, vmax = _vertex_bounds(a, b, vi, vj, L, U)
            lo = min(lo, vmin)
            hi = max(hi, vmax)
        return lo, hi
    # '*' : independent rectangle
    lo_a, hi_a = _linear_bounds(a, L, U)
    lo_b, hi_b = _linear_bounds(-b, L, U)
    return lo_a + lo_b, hi_a + hi_b


def _linear_bounds(t: int, L: float, U: float) -> Tuple[float, float]:
    if t == 0:
        return 0.0, 0.0
    v1, v2 = _mul(t, L), _mul(t, U)
    return min(v1, v2), max(v1, v2)


def _vertex_bounds(a: int, b: int, vi: Tuple[str, int], vj: Tuple[str, int],
                   L: float, U: float) -> Tuple[float, float]:
    """Range of ``a*i - b*i'`` at a symbolic vertex ``i = sym_i + off_i``,
    ``i' = sym_j + off_j``.  A nonzero coefficient on an unknown bound makes
    the vertex value unbounded in both directions (the unknown bound can be
    any integer)."""
    coef_l = (a if vi[0] == "L" else 0) - (b if vj[0] == "L" else 0)
    coef_u = (a if vi[0] == "U" else 0) - (b if vj[0] == "U" else 0)
    const: float = a * vi[1] - b * vj[1]
    # fold known bounds into the constant
    if coef_l and not math.isinf(L):
        const += coef_l * L
        coef_l = 0
    if coef_u and not math.isinf(U):
        const += coef_u * U
        coef_u = 0
    if coef_u:
        # U unknown.  The '<' direction implies the loop runs at least two
        # iterations, so U >= L + 1; write U = L + t with t >= 1, which
        # keeps strong-SIV cases (a == b) exact even with symbolic bounds.
        if not math.isinf(L):
            const += coef_u * L
        else:
            coef_l += coef_u
        boundary = const + coef_u  # value at t == 1
        if coef_l:
            return -INF, INF
        return (boundary, INF) if coef_u > 0 else (-INF, boundary)
    if coef_l:
        return -INF, INF
    return const, const


def _mul(c: int, x: float) -> float:
    """c*x with the convention 0*inf == 0 (a zero coefficient kills the
    unbounded direction)."""
    if c == 0:
        return 0.0
    return c * x
