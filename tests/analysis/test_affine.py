"""Tests for affine subscript extraction."""

from repro.analysis.affine import extract
from repro.analysis.symbolic import from_expr
from repro.fortran.parser import parse_expression as pe


class TestExtract:
    def test_simple_index(self):
        f = extract(pe("I"), ["I"])
        assert f is not None
        assert f.coeff("I") == 1
        assert f.remainder.is_zero()

    def test_affine_with_constant(self):
        f = extract(pe("2*I + 3"), ["I"])
        assert f.coeff("I") == 2
        assert f.remainder.constant_value() == 3

    def test_symbolic_invariant_part(self):
        # T(IX(7) + I): affine in I, remainder is the opaque atom IX(7)
        f = extract(pe("IX(7) + I"), ["I"])
        assert f is not None
        assert f.coeff("I") == 1
        assert not f.remainder.is_constant()

    def test_two_indices(self):
        f = extract(pe("4*I + J - 2"), ["I", "J"])
        assert f.coeff("I") == 4 and f.coeff("J") == 1
        assert f.remainder.constant_value() == -2

    def test_invariant_scalar_stays_in_remainder(self):
        f = extract(pe("I + NBASE"), ["I"])
        assert f.coeff("I") == 1
        assert f.remainder == from_expr(pe("NBASE"))

    def test_subscripted_subscript_nonaffine(self):
        # A(IDX(I)): the index variable is trapped inside an opaque read
        assert extract(pe("IDX(I)"), ["I"]) is None

    def test_subscripted_subscript_offset_nonaffine(self):
        assert extract(pe("IDX(I) + 3"), ["I"]) is None

    def test_index_product_nonaffine(self):
        assert extract(pe("I*J"), ["I", "J"]) is None

    def test_index_squared_nonaffine(self):
        assert extract(pe("I*I"), ["I"]) is None

    def test_index_times_symbol_nonaffine(self):
        assert extract(pe("N*I"), ["I"]) is None

    def test_index_under_division_nonaffine(self):
        assert extract(pe("I/2"), ["I"]) is None

    def test_non_index_atom_is_fine(self):
        f = extract(pe("IDX(J) + I"), ["I"])
        assert f is not None and f.coeff("I") == 1

    def test_unique_style_linear_form(self):
        # what the `unique` operator lowers to: a known injective linear map
        f = extract(pe("257*ID + 16*IN + I"), ["I"])
        assert f is not None
        assert f.coeff("I") == 1
        assert f.remainder == from_expr(pe("257*ID + 16*IN"))

    def test_invariant_subscript(self):
        f = extract(pe("K1"), ["I", "J"])
        assert f is not None
        assert f.coeff("I") == f.coeff("J") == 0
