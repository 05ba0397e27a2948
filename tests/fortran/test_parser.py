"""Unit tests for the Fortran 77 parser."""

import pytest

from repro.errors import ParseError
from repro.fortran import ast
from repro.fortran.parser import parse_expression, parse_source
from repro.fortran.unparser import unparse


def parse_body(stmts: str):
    src = "      SUBROUTINE T\n" + stmts + "      END\n"
    return parse_source(src).units[0].body


class TestExpressions:
    def test_precedence(self):
        e = parse_expression("A+B*C")
        assert e == ast.BinOp("+", ast.Var("A"),
                              ast.BinOp("*", ast.Var("B"), ast.Var("C")))

    def test_power_right_assoc(self):
        e = parse_expression("A**B**C")
        assert e == ast.BinOp("**", ast.Var("A"),
                              ast.BinOp("**", ast.Var("B"), ast.Var("C")))

    def test_unary_minus_below_power(self):
        # -A**2 parses as -(A**2)
        e = parse_expression("-A**2")
        assert isinstance(e, ast.UnOp) and e.op == "-"
        assert isinstance(e.operand, ast.BinOp) and e.operand.op == "**"

    def test_relational_canonicalized(self):
        e = parse_expression("I .GT. 0")
        assert e == ast.BinOp(">", ast.Var("I"), ast.IntLit(0))

    def test_logical_precedence(self):
        e = parse_expression("A.LT.B .AND. .NOT. C.GT.D .OR. E.EQ.F")
        assert isinstance(e, ast.BinOp) and e.op == ".OR."

    def test_subscripted_subscript(self):
        e = parse_expression("T(IX(7)+I)")
        assert e == ast.ArrayRef(
            "T", (ast.BinOp("+", ast.ArrayRef("IX", (ast.IntLit(7),)),
                            ast.Var("I")),))

    def test_nested_parens(self):
        e = parse_expression("((A))")
        assert e == ast.Var("A")

    def test_double_literal(self):
        e = parse_expression("2.D0")
        assert e == ast.RealLit(2.0, "DOUBLE", "2.D0")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("A)B")


class TestStatements:
    def test_assignment(self):
        body = parse_body("      X2(I) = FX(I)*2.0\n")
        assert isinstance(body[0], ast.Assign)
        assert body[0].target == ast.ArrayRef("X2", (ast.Var("I"),))

    def test_call_no_args(self):
        body = parse_body("      CALL SHAPE1\n")
        assert body[0] == ast.CallStmt("SHAPE1", ())

    def test_call_with_args(self):
        body = parse_body("      CALL FSMP(ID, IDE)\n")
        assert body[0] == ast.CallStmt(
            "FSMP", (ast.Var("ID"), ast.Var("IDE")))

    def test_logical_if(self):
        body = parse_body("      IF (IERR.NE.0) STOP 'BAD'\n")
        s = body[0]
        assert isinstance(s, ast.IfBlock)
        assert len(s.arms) == 1
        assert s.arms[0][1] == [ast.Stop("BAD")]

    def test_block_if_else(self):
        body = parse_body(
            "      IF (A.GT.B) THEN\n"
            "        X = 1\n"
            "      ELSE IF (A.LT.B) THEN\n"
            "        X = 2\n"
            "      ELSE\n"
            "        X = 3\n"
            "      END IF\n")
        s = body[0]
        assert isinstance(s, ast.IfBlock)
        assert len(s.arms) == 3
        assert s.arms[2][0] is None

    def test_do_enddo(self):
        body = parse_body(
            "      DO I = 1, N\n"
            "        A(I) = 0.0\n"
            "      END DO\n")
        loop = body[0]
        assert isinstance(loop, ast.DoLoop)
        assert loop.term_label is None
        assert loop.var == "I" and len(loop.body) == 1

    def test_do_with_step(self):
        body = parse_body("      DO 10 I = 1, N, 2\n   10 CONTINUE\n")
        loop = body[0]
        assert loop.step == ast.IntLit(2)
        assert loop.term_label == 10

    def test_label_terminated_do(self):
        body = parse_body(
            "      DO 100 I = 1, N\n"
            "        A(I) = 0.0\n"
            "  100 CONTINUE\n")
        loop = body[0]
        assert loop.term_label == 100
        assert isinstance(loop.body[-1], ast.Continue)
        assert loop.body[-1].label == 100

    def test_shared_terminator_nest(self):
        # the paper's Figure 2 idiom: two DOs sharing label 200
        body = parse_body(
            "      DO 200 N = 1, NTYPES\n"
            "        NSP = NSPECI(N)\n"
            "        DO 200 J = 1, NSP\n"
            "          I = I + 1\n"
            "  200 CONTINUE\n")
        outer = body[0]
        assert isinstance(outer, ast.DoLoop) and outer.var == "N"
        inner = outer.body[-1]
        assert isinstance(inner, ast.DoLoop) and inner.var == "J"
        assert isinstance(inner.body[-1], ast.Continue)
        assert inner.body[-1].label == 200

    def test_goto(self):
        body = parse_body("      GO TO 300\n  300 CONTINUE\n")
        assert body[0] == ast.Goto(300)

    def test_write(self):
        body = parse_body("      WRITE(6,*) IDE, X\n")
        s = body[0]
        assert isinstance(s, ast.IoStmt)
        assert s.kind == "WRITE" and s.control == "6,*"
        assert s.items == (ast.Var("IDE"), ast.Var("X"))

    def test_print(self):
        body = parse_body("      PRINT *, X\n")
        assert body[0].kind == "PRINT"

    def test_format_kept(self):
        body = parse_body("  900 FORMAT(1X,I5)\n      X = 1\n")
        assert body[0] == ast.Format(900, "(1X,I5)")
        assert len(body) == 2

    def test_format_label_survives_the_round_trip(self):
        src = ("      PROGRAM P\n      REAL X\n      X = 1.5\n"
               "      WRITE (6, 20) X\n   20 FORMAT (F4.1)\n      END\n")
        out = unparse(parse_source(src))
        assert "   20" in out and "FORMAT (F4.1)" in out
        assert parse_source(out).units == parse_source(src).units

    @pytest.mark.parametrize("form, control", [("*", "*,*"),
                                               ("10", "*,10")])
    def test_read_short_form(self, form, control):
        body = parse_body(f"      READ {form}, N, X\n")
        assert body[0] == ast.IoStmt("READ", control,
                                     (ast.Var("N"), ast.Var("X")))

    def test_stop_plain(self):
        body = parse_body("      STOP\n")
        assert body[0] == ast.Stop(None)

    def test_missing_endif(self):
        with pytest.raises(ParseError):
            parse_body("      IF (A.GT.B) THEN\n      X = 1\n")

    def test_missing_do_terminator(self):
        with pytest.raises(ParseError):
            parse_body("      DO 10 I=1,N\n      X = 1\n")


class TestDeclarations:
    def test_type_and_dimension(self):
        src = ("      SUBROUTINE S(X2,Y2)\n"
               "      DOUBLE PRECISION X2(*), Y2(*)\n"
               "      DIMENSION FX(1000)\n"
               "      INTEGER NSPECI(50)\n"
               "      END\n")
        unit = parse_source(src).units[0]
        types = unit.find_decls(ast.TypeDecl)
        assert types[0].typename == "DOUBLE PRECISION"
        assert types[0].entities[0].dims[0].upper is None  # assumed size
        dims = unit.find_decls(ast.DimensionDecl)
        assert dims[0].entities[0].dims[0].upper == ast.IntLit(1000)

    def test_common(self):
        src = ("      SUBROUTINE S\n"
               "      COMMON /BLK/ T(100000), IX(64)\n"
               "      COMMON A, B\n"
               "      END\n")
        unit = parse_source(src).units[0]
        commons = unit.find_decls(ast.CommonDecl)
        assert commons[0].block == "BLK"
        assert commons[0].entities[1].name == "IX"
        assert commons[1].block == ""

    def test_parameter(self):
        src = ("      SUBROUTINE S\n"
               "      PARAMETER (N=10, PI=3.14159)\n"
               "      END\n")
        unit = parse_source(src).units[0]
        p = unit.find_decls(ast.ParameterDecl)[0]
        assert p.assignments[0] == ("N", ast.IntLit(10))

    def test_data_with_repeat(self):
        src = ("      SUBROUTINE S\n"
               "      DIMENSION A(3)\n"
               "      DATA A /3*0.0/, B /1.5/\n"
               "      END\n")
        unit = parse_source(src).units[0]
        d = unit.find_decls(ast.DataDecl)[0]
        assert len(d.values) == 4
        assert d.targets[1] == ast.Var("B")

    def test_implicit_none(self):
        src = ("      SUBROUTINE S\n"
               "      IMPLICIT NONE\n"
               "      END\n")
        unit = parse_source(src).units[0]
        assert unit.find_decls(ast.ImplicitDecl)[0].text == "NONE"

    def test_real_star_8(self):
        src = ("      SUBROUTINE S\n"
               "      REAL*8 X\n"
               "      END\n")
        unit = parse_source(src).units[0]
        assert unit.find_decls(ast.TypeDecl)[0].typename == "DOUBLE PRECISION"


class TestUnits:
    def test_program_and_subroutine(self):
        src = ("      PROGRAM MAIN\n"
               "      CALL S(1)\n"
               "      END\n"
               "      SUBROUTINE S(I)\n"
               "      RETURN\n"
               "      END\n")
        f = parse_source(src)
        assert [u.kind for u in f.units] == ["PROGRAM", "SUBROUTINE"]
        assert f.units[1].params == ["I"]

    def test_typed_function(self):
        src = ("      DOUBLE PRECISION FUNCTION F(X)\n"
               "      F = X*2\n"
               "      END\n")
        unit = parse_source(src).units[0]
        assert unit.kind == "FUNCTION"
        assert unit.result_type == "DOUBLE PRECISION"

    def test_statement_outside_unit(self):
        with pytest.raises(ParseError):
            parse_source("      X = 1\n      END\n")


class TestOmpAndTags:
    def test_parallel_do_parsing(self):
        src = ("      SUBROUTINE S\n"
               "!$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(T1,T2) "
               "REDUCTION(+:SUM1)\n"
               "      DO 10 I = 1, N\n"
               "        SUM1 = SUM1 + A(I)\n"
               "   10 CONTINUE\n"
               "!$OMP END PARALLEL DO\n"
               "      END\n")
        body = parse_source(src).units[0].body
        omp = body[0]
        assert isinstance(omp, ast.OmpParallelDo)
        assert omp.private == ("T1", "T2")
        assert omp.reductions == (("+", "SUM1"),)

    def test_tagged_block_roundtrip_parse(self):
        src = ("      SUBROUTINE S\n"
               "C@INLINE BEGIN MATMLT 3 PP(1,1,KS-1)|PHIT(1,1)|TM1(1,1)\n"
               "      DO JN = 1, 4\n"
               "        TM1(JN,JN) = 0.0\n"
               "      END DO\n"
               "C@INLINE END 3\n"
               "      END\n")
        body = parse_source(src).units[0].body
        tb = body[0]
        assert isinstance(tb, ast.TaggedBlock)
        assert tb.callee == "MATMLT" and tb.site_id == 3
        assert len(tb.actuals) == 3
        assert isinstance(tb.body[0], ast.DoLoop)

    def test_tag_mismatch_rejected(self):
        src = ("      SUBROUTINE S\n"
               "C@INLINE BEGIN F 1\n"
               "      X = 1\n"
               "C@INLINE END 2\n"
               "      END\n")
        with pytest.raises(ParseError):
            parse_source(src)
