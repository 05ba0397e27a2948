"""Unit and property tests for the symbolic polynomial algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.symbolic import (Poly, atom_token, exprs_equivalent,
                                     from_expr)
from repro.fortran import ast
from repro.fortran.parser import parse_expression as pe


class TestCanonicalForm:
    def test_constant(self):
        assert from_expr(pe("3+4")).constant_value() == 7

    def test_linear_combination(self):
        p = from_expr(pe("2*I + 3*J - I"))
        assert p.coeff("I") == 1
        assert p.coeff("J") == 3

    def test_cancellation(self):
        assert from_expr(pe("I - I")).is_zero()

    def test_distribution(self):
        assert from_expr(pe("2*(I+J)")) == from_expr(pe("2*I + 2*J"))

    def test_power_expansion(self):
        p = from_expr(pe("(I+1)**2"))
        assert p == from_expr(pe("I*I + 2*I + 1"))

    def test_exact_integer_division(self):
        assert from_expr(pe("(4*I+8)/4")) == from_expr(pe("I+2"))

    def test_inexact_division_becomes_atom(self):
        p = from_expr(pe("I/2"))
        assert any(t.startswith("@") for t in p.variables())

    def test_array_read_is_atom(self):
        p = from_expr(pe("IX(7)+I"))
        assert p.coeff("I") == 1
        assert atom_token(pe("IX(7)")) in p.variables()

    def test_same_atom_cancels(self):
        # the Figure-2 precision requirement: identical opaque reads cancel
        d = from_expr(pe("IX(7)+I")) - from_expr(pe("IX(7)+J"))
        assert d == from_expr(pe("I-J"))

    def test_distinct_atoms_do_not_cancel(self):
        d = from_expr(pe("IX(7)+I")) - from_expr(pe("IX(8)+I"))
        assert not d.is_constant()

    def test_atom_records_names_inside(self):
        p = from_expr(pe("NSPECI(N)"))
        assert "N" in p.names_mentioned()
        assert "NSPECI" in p.names_mentioned()

    def test_names_mentioned_plain(self):
        assert from_expr(pe("2*I+J")).names_mentioned() == {"I", "J"}


class TestArithmetic:
    def test_scale(self):
        assert from_expr(pe("I+2")).scale(3) == from_expr(pe("3*I+6"))

    def test_scale_zero(self):
        assert from_expr(pe("I+2")).scale(0).is_zero()

    def test_mul_polynomials(self):
        p = from_expr(pe("I+1")) * from_expr(pe("I-1"))
        assert p == from_expr(pe("I*I-1"))

    def test_without(self):
        p = from_expr(pe("2*I + 3*J + 5"))
        q = p.without(["I"])
        assert q == from_expr(pe("3*J + 5"))


class TestRoundtrip:
    def test_to_expr_roundtrip(self):
        for text in ["2*I+3", "I-J", "0", "IX(7)+I", "-I", "I*J+4*K-7"]:
            p = from_expr(pe(text))
            assert from_expr(p.to_expr()) == p, text

    def test_equivalence(self):
        assert exprs_equivalent(pe("A+B"), pe("B+A"))
        assert exprs_equivalent(pe("2*(I+1)"), pe("2*I+2"))
        assert not exprs_equivalent(pe("I+1"), pe("I+2"))


# --- property tests: ring laws under random small polynomials --------------

def polys():
    consts = st.integers(-5, 5).map(Poly.const)
    variables = st.sampled_from(["I", "J", "N"]).map(Poly.var)
    atoms = st.sampled_from(["IX(7)", "IDX(I)"]).map(
        lambda t: Poly.atom(pe(t)))
    base = st.one_of(consts, variables, atoms)

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: t[0] + t[1]),
            st.tuples(children, children).map(lambda t: t[0] * t[1]),
            children.map(lambda p: -p),
        )

    return st.recursive(base, extend, max_leaves=6)


@given(polys(), polys(), polys())
@settings(max_examples=150)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Poly.const(0)
    assert p * Poly.const(1) == p
    assert (p * Poly.const(0)).is_zero()


@given(polys())
@settings(max_examples=100)
def test_to_expr_inverse(p):
    assert from_expr(p.to_expr()) == p
