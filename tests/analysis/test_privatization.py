"""Tests for scalar classification, array kill analysis and reductions."""

import pytest

from repro.analysis.privatization import ScalarClass, scan_body
from repro.analysis.regions import Region, ref_region, project_over_loop
from repro.analysis.symbolic import from_expr
from repro.fortran import ast
from repro.fortran.parser import parse_expression as pe
from repro.fortran.parser import parse_source
from repro.fortran.symbols import build_symbol_table


def body_and_table(src):
    unit = parse_source(src).units[0]
    return unit.body, build_symbol_table(unit)


def loop_body(src):
    body, table = body_and_table(src)
    loop = body[0]
    assert isinstance(loop, ast.DoLoop)
    return loop.body, table


class TestScalarClassification:
    def test_write_first(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        T = A(I)*2.0\n"
            "        A(I) = T + 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        cls = scan_body(body, table).scalars
        assert cls["T"] is ScalarClass.WRITE_FIRST

    def test_read_first(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = T\n"
            "        T = A(I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        cls = scan_body(body, table).scalars
        assert cls["T"] is ScalarClass.READ_FIRST

    def test_read_only(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = C*2.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).scalars["C"] is ScalarClass.READ_ONLY

    def test_conditional_write_then_read_not_private(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        IF (A(I).GT.0.0) T = 1.0\n"
            "        A(I) = T\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).scalars["T"] is ScalarClass.READ_FIRST

    def test_write_on_all_branches_is_private(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        IF (A(I).GT.0.0) THEN\n"
            "          T = 1.0\n"
            "        ELSE\n"
            "          T = 2.0\n"
            "        END IF\n"
            "        A(I) = T\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).scalars["T"] is ScalarClass.WRITE_FIRST

    def test_inner_loop_zero_trip_conservatism(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        DO 20 J = 1, M\n"
            "          T = 1.0\n"
            "   20   CONTINUE\n"
            "        A(I) = T\n"
            "   10 CONTINUE\n"
            "      END\n")
        # the inner loop may run zero iterations, so T may be stale
        assert scan_body(body, table).scalars["T"] is ScalarClass.READ_FIRST

    def test_condition_read_counts(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        IF (T.GT.0.0) A(I) = 0.0\n"
            "        T = A(I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).scalars["T"] is ScalarClass.READ_FIRST


class TestRegions:
    def info(self, src, name):
        unit = parse_source(src).units[0]
        return build_symbol_table(unit).info(name)

    SRC = ("      SUBROUTINE S\n"
           "      DIMENSION XY(2,64), A(100)\n"
           "      END\n")

    def test_point_region(self):
        info = self.info(self.SRC, "A")
        r = ref_region((pe("I"),), info)
        assert r.dims[0].lo == from_expr(pe("I"))
        assert r.covers(r)

    def test_whole_array(self):
        info = self.info(self.SRC, "XY")
        r = Region.whole_array(info)
        assert r.dims[1].hi == from_expr(pe("64"))

    def test_section_defaults_to_declared(self):
        info = self.info(self.SRC, "XY")
        r = ref_region((ast.RangeExpr(None, None), pe("J")), info)
        assert r.dims[0].lo == from_expr(pe("1"))
        assert r.dims[0].hi == from_expr(pe("2"))

    def test_coverage_constant(self):
        info = self.info(self.SRC, "A")
        big = ref_region((ast.RangeExpr(pe("1"), pe("10")),), info)
        small = ref_region((ast.RangeExpr(pe("2"), pe("9")),), info)
        assert big.covers(small)
        assert not small.covers(big)

    def test_coverage_symbolic_equal(self):
        info = self.info(self.SRC, "A")
        a = ref_region((ast.RangeExpr(pe("1"), pe("NNPED")),), info)
        b = ref_region((ast.RangeExpr(pe("1"), pe("NNPED")),), info)
        assert a.covers(b)

    def test_coverage_symbolic_different_fails(self):
        # the Section II-B3 failure: NNPED does not provably cover NNPS
        info = self.info(self.SRC, "A")
        a = ref_region((ast.RangeExpr(pe("1"), pe("NNPED")),), info)
        b = ref_region((ast.RangeExpr(pe("1"), pe("NNPS")),), info)
        assert not a.covers(b)

    def test_projection(self):
        info = self.info(self.SRC, "A")
        unit = parse_source(
            "      SUBROUTINE T\n"
            "      DO 10 J = 1, M\n"
            "   10 CONTINUE\n"
            "      END\n").units[0]
        loop = unit.body[0]
        r = project_over_loop(ref_region((pe("J"),), info), loop)
        assert r.dims[0].lo == from_expr(pe("1"))
        assert r.dims[0].hi == from_expr(pe("M"))

    def test_projection_nonunit_coeff_unknown(self):
        info = self.info(self.SRC, "A")
        unit = parse_source(
            "      SUBROUTINE T\n"
            "      DO 10 J = 1, M\n"
            "   10 CONTINUE\n"
            "      END\n").units[0]
        loop = unit.body[0]
        r = project_over_loop(ref_region((pe("2*J"),), info), loop)
        assert r.dims[0].lo is None  # strided: gaps, not a dense cover


class TestArrayKill:
    def test_whole_loop_kill(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION T(64), A(100,64)\n"
            "      DO 10 I = 1, N\n"
            "        DO 20 J = 1, 64\n"
            "          T(J) = A(I,J)\n"
            "   20   CONTINUE\n"
            "        DO 30 J = 1, 64\n"
            "          A(I,J) = T(J)*2.0\n"
            "   30   CONTINUE\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).privatizable("T")

    def test_partial_kill_fails(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION T(64), A(100,64)\n"
            "      DO 10 I = 1, N\n"
            "        DO 20 J = 1, 32\n"
            "          T(J) = A(I,J)\n"
            "   20   CONTINUE\n"
            "        DO 30 J = 1, 64\n"
            "          A(I,J) = T(J)*2.0\n"
            "   30   CONTINUE\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not scan_body(body, table).privatizable("T")

    def test_symbolic_mismatch_fails(self):
        # GETCR/SHAPE1: writer bound NNPED, reader indirect
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION XY(2,64), NODE(64), A(100)\n"
            "      DO 10 I = 1, N\n"
            "        DO 20 J = 1, NNPED\n"
            "          XY(1,J) = 0.0\n"
            "          XY(2,J) = 0.0\n"
            "   20   CONTINUE\n"
            "        A(I) = XY(1,NODE(I))\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not scan_body(body, table).privatizable("XY")

    def test_symbolic_match_succeeds(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION T(64), A(100)\n"
            "      DO 10 I = 1, N\n"
            "        DO 20 J = 1, NN\n"
            "          T(J) = 0.0\n"
            "   20   CONTINUE\n"
            "        DO 30 J = 1, NN\n"
            "          A(I) = A(I) + T(J)\n"
            "   30   CONTINUE\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).privatizable("T")

    def test_conditional_write_not_a_kill(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION T(64), A(100)\n"
            "      DO 10 I = 1, N\n"
            "        IF (A(I).GT.0.0) THEN\n"
            "          DO 20 J = 1, 64\n"
            "            T(J) = 0.0\n"
            "   20     CONTINUE\n"
            "        END IF\n"
            "        A(I) = T(5)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not scan_body(body, table).privatizable("T")

    def test_region_assignment_kills(self):
        # the form annotation translation produces: XY(1:2,1:64) = expr
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION XY(2,64), A(100)\n"
            "      DO 10 I = 1, N\n"
            "        XY(1:2,1:64) = 0.0\n"
            "        A(I) = XY(1,5)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).privatizable("XY")

    def test_read_before_write_fails(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION T(64), A(100)\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = T(1)\n"
            "        DO 20 J = 1, 64\n"
            "          T(J) = 0.0\n"
            "   20   CONTINUE\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not scan_body(body, table).privatizable("T")

    def test_write_in_if_inside_inner_loop_not_a_kill(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION T(64), A(100)\n"
            "      DO 10 I = 1, N\n"
            "        DO 20 J = 1, 64\n"
            "          IF (A(I).GT.0.0) T(J) = 0.0\n"
            "   20   CONTINUE\n"
            "        A(I) = T(5)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not scan_body(body, table).privatizable("T")

    def test_read_item_is_a_read(self):
        # READ(5,*) T(1) stores into T(1), but the kill analysis counts it
        # as an access before any covering write
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION T(64), A(100)\n"
            "      DO 10 I = 1, N\n"
            "        READ(5,*) T(1)\n"
            "        DO 20 J = 1, 64\n"
            "          T(J) = 0.0\n"
            "   20   CONTINUE\n"
            "        A(I) = T(5)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not scan_body(body, table).privatizable("T")

    def test_read_in_another_arrays_target_subscript_counts(self):
        # IT(1) is read (in A's subscript) before this iteration writes it:
        # the value flows in from the previous iteration
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION IT(64), A(100)\n"
            "      DO 10 I = 1, N\n"
            "        A(IT(1)) = 0.0\n"
            "        IT(1) = I\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not scan_body(body, table).privatizable("IT", "I")

    def test_array_passed_to_call_blocks(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION T(64)\n"
            "      DO 10 I = 1, N\n"
            "        CALL USE(T)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not scan_body(body, table).privatizable("T")


class TestReductions:
    def test_sum(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        S1 = S1 + A(I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).reductions == {"S1": "+"}

    def test_difference_is_plus_reduction(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        S1 = S1 - A(I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).reductions == {"S1": "+"}

    def test_product(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        P = P * A(I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).reductions == {"P": "*"}

    def test_max(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        XM = MAX(XM, A(I))\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).reductions == {"XM": "MAX"}

    def test_var_used_elsewhere_disqualifies(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        S1 = S1 + A(I)\n"
            "        A(I) = S1\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).reductions == {}

    def test_mixed_operators_disqualify(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        S1 = S1 + A(I)\n"
            "        S1 = S1 * 2.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).reductions == {}

    def test_two_reductions(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        S1 = S1 + A(I)\n"
            "        S2 = S2 + A(I)*A(I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).reductions == {"S1": "+", "S2": "+"}

    def test_conditional_reduction(self):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        IF (A(I).GT.0.0) S1 = S1 + A(I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert scan_body(body, table).reductions == {"S1": "+"}

    @pytest.mark.parametrize("use", [
        "        DO 20 J = 1, S\n   20   CONTINUE\n",
        "        IF (S.GT.0.0) A(I) = 0.0\n",
        "        CALL USE(S)\n",
        "        WRITE(6,*) S\n",
        "        GO TO (10, 10), S\n",
        "        READ(5,*) S\n",
        None,  # a tagged block's actuals
    ])
    def test_any_other_occurrence_disqualifies(self, use):
        body, table = loop_body(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 I = 1, N\n"
            "        S = S + A(I)\n"
            + (use or "") +
            "   10 CONTINUE\n"
            "      END\n")
        if use is None:
            body = body + [ast.TaggedBlock("USE", 1, (ast.Var("S"),), [])]
        assert "S" not in scan_body(body, table).reductions
