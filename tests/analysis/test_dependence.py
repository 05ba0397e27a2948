"""Unit + property tests for the dependence tester.

The property test is the soundness oracle: whenever the tester reports
*independent* (False), a brute-force enumeration over the concrete
iteration space must find no conflicting pair.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.affine import AffineForm, extract
from repro.analysis.dependence import DependenceTester, LoopCtx
from repro.analysis.symbolic import Poly, from_expr
from repro.fortran.parser import parse_expression as pe


def affine(text, indices):
    f = extract(pe(text), indices)
    assert f is not None, text
    return f


def may_depend_1d(a_text, b_text, loops, dirs, **kw):
    t = DependenceTester(**kw)
    return t.may_depend([affine(a_text, [lp.var for lp in loops])],
                        [affine(b_text, [lp.var for lp in loops])],
                        loops, dirs)


I10 = [LoopCtx("I", 1, 10)]


class TestZIV:
    def test_distinct_constants_independent(self):
        assert not may_depend_1d("3", "4", I10, {"I": "<"})

    def test_same_constant_dependent(self):
        assert may_depend_1d("3", "3", I10, {"I": "<"})

    def test_equal_symbolic_invariants_dependent(self):
        assert may_depend_1d("K1", "K1", I10, {"I": "<"})

    def test_distinct_symbolic_invariants_assumed_dependent(self):
        # IX(7) vs IX(8): unknown difference => conservative
        assert may_depend_1d("IX(7)", "IX(8)", I10, {"I": "<"})


class TestSIV:
    def test_identical_subscript_not_carried(self):
        # A(I) vs A(I) under '<': i' = i is impossible, independent
        assert not may_depend_1d("I", "I", I10, {"I": "<"})

    def test_identical_subscript_same_iteration(self):
        assert may_depend_1d("I", "I", I10, {"I": "="})

    def test_shifted_carried(self):
        # A(I) vs A(I-1): distance 1 dependence
        assert may_depend_1d("I", "I-1", I10, {"I": "<"})

    def test_shift_beyond_range_independent(self):
        assert not may_depend_1d("I", "I-100", I10, {"I": "<"})

    def test_gcd_disproof(self):
        # 2I vs 2I'+1: parity mismatch
        assert not may_depend_1d("2*I", "2*I+1", I10, {"I": "*"})

    def test_gcd_only_mode(self):
        t = may_depend_1d("2*I", "2*I+1", I10, {"I": "*"},
                          use_banerjee=False)
        assert not t

    def test_banerjee_needed(self):
        # I vs I+10 in [1,5]: gcd passes (g=1), only bounds disprove
        loops = [LoopCtx("I", 1, 5)]
        assert not may_depend_1d("I", "I+10", loops, {"I": "*"})
        assert may_depend_1d("I", "I+10", loops, {"I": "*"},
                             use_banerjee=False)

    def test_symbolic_offset_assumed_dependent(self):
        assert may_depend_1d("I", "I+NOFF", I10, {"I": "<"})

    def test_same_symbolic_base_cancels(self):
        # T(IX(7)+I) vs T(IX(7)+I): symbolic bases cancel, no carried dep
        assert not may_depend_1d("IX(7)+I", "IX(7)+I", I10, {"I": "<"})

    def test_different_symbolic_base_dependent(self):
        assert may_depend_1d("IX(7)+I", "IX(8)+I", I10, {"I": "<"})

    def test_unknown_bounds_conservative(self):
        loops = [LoopCtx("I", 1, None)]
        assert may_depend_1d("I", "I-1", loops, {"I": "<"})
        assert not may_depend_1d("I", "I", loops, {"I": "<"})

    def test_unique_linear_combination(self):
        # RHSB(257*ID+I) where ID is invariant: independent across I
        loops = [LoopCtx("I", 1, 16)]
        assert not may_depend_1d("257*ID+I", "257*ID+I", loops, {"I": "<"})


class TestMultiDim:
    def test_second_dimension_disproof(self):
        # FE(J, IDE) with IDE == K (column per iteration): K-carried test
        loops = [LoopCtx("K", 1, 50), LoopCtx("J", 1, 8)]
        t = DependenceTester()
        a = [affine("J", ["K", "J"]), affine("K", ["K", "J"])]
        assert not t.may_depend(a, a, loops, {"K": "<", "J": "*"})

    def test_invariant_offset_dimension_disproof(self):
        # FE(J, 64*IB+K): the block offset IB is loop-invariant, so the
        # K-carried test still disproves — and so does the memo's answer
        loops = [LoopCtx("K", 1, 100), LoopCtx("J", 1, 16)]
        t = DependenceTester()
        a = [affine("J", ["K", "J"]), affine("64*IB+K", ["K", "J"])]
        for _ in range(2):
            assert not t.may_depend(a, a, loops, {"K": "<", "J": "*"})

    def test_nonaffine_dimension_ignored(self):
        loops = [LoopCtx("I", 1, 10)]
        t = DependenceTester()
        a = [None, affine("I", ["I"])]
        b = [None, affine("I+20", ["I"])]
        assert not t.may_depend(a, b, loops, {"I": "*"})

    def test_all_nonaffine_assumed(self):
        loops = [LoopCtx("I", 1, 10)]
        t = DependenceTester()
        assert t.may_depend([None], [None], loops, {"I": "<"})

    def test_rank_mismatch_assumed(self):
        loops = [LoopCtx("I", 1, 10)]
        t = DependenceTester()
        a = [affine("I", ["I"])]
        b = [affine("I", ["I"]), affine("1", ["I"])]
        assert t.may_depend(a, b, loops, {"I": "<"})

    def test_stats_recorded(self):
        t = DependenceTester()
        a = [affine("I", ["I"])]
        t.may_depend(a, a, I10, {"I": "<"})
        assert (t.stats.banerjee_independent + t.stats.gcd_independent
                + t.stats.ziv_independent) == 1


# ---------------------------------------------------------------------------
# soundness property: tester-independent implies brute-force-independent
# ---------------------------------------------------------------------------

@st.composite
def affine_pair(draw):
    """Two affine subscripts over loops I (and sometimes J) with small
    known bounds, plus a direction constraint."""
    two_loops = draw(st.booleans())
    loops = [LoopCtx("I", 1, draw(st.integers(1, 6)))]
    if two_loops:
        loops.append(LoopCtx("J", 1, draw(st.integers(1, 4))))
    coeffs = st.integers(-4, 4)
    consts = st.integers(-10, 10)

    def form():
        c = {lp.var: draw(coeffs) for lp in loops}
        return AffineForm(c, Poly.const(draw(consts)))

    fa, fb = form(), form()
    dirs = {lp.var: draw(st.sampled_from(["=", "<", "*"])) for lp in loops}
    return fa, fb, loops, dirs


def brute_force_dependent(fa, fb, loops, dirs):
    ranges = [range(lp.lower, lp.upper + 1) for lp in loops]
    for iv in itertools.product(*ranges):
        for jv in itertools.product(*ranges):
            ok = True
            for lp, a, b in zip(loops, iv, jv):
                d = dirs[lp.var]
                if d == "=" and a != b:
                    ok = False
                elif d == "<" and not a < b:
                    ok = False
            if not ok:
                continue
            va = sum(fa.coeff(lp.var) * x for lp, x in zip(loops, iv)) \
                + fa.remainder.constant_value()
            vb = sum(fb.coeff(lp.var) * x for lp, x in zip(loops, jv)) \
                + fb.remainder.constant_value()
            if va == vb:
                return True
    return False


@given(affine_pair())
@settings(max_examples=300, deadline=None)
def test_soundness_against_brute_force(case):
    fa, fb, loops, dirs = case
    tester = DependenceTester()
    if not tester.may_depend([fa], [fb], loops, dirs):
        assert not brute_force_dependent(fa, fb, loops, dirs), \
            f"tester claimed independence but {fa} vs {fb} conflict " \
            f"under {dirs}"


@given(affine_pair())
@settings(max_examples=150, deadline=None)
def test_gcd_only_weaker_but_sound(case):
    fa, fb, loops, dirs = case
    full = DependenceTester(use_banerjee=True)
    gcd_only = DependenceTester(use_banerjee=False)
    full_dep = full.may_depend([fa], [fb], loops, dirs)
    gcd_dep = gcd_only.may_depend([fa], [fb], loops, dirs)
    # GCD-only must be at least as conservative as the full tester
    if full_dep:
        assert gcd_dep
    if not gcd_dep:
        assert not brute_force_dependent(fa, fb, loops, dirs)
