"""Tests for the annotation language parser (Figure 12) and the
soundness checker's mechanical checks on it."""

import pytest

from repro.annotations import ast as aast
from repro.annotations.parser import (parse_annotation_expr,
                                      parse_annotations)
from repro.annotations.soundness import check_soundness
from repro.errors import AnnotationError
from repro.fortran import ast as fast
from repro.program import Program


class TestExpressions:
    def test_bracket_array_ref(self):
        e = parse_annotation_expr("IEGEOM[ID]")
        assert e == fast.ArrayRef("IEGEOM", (fast.Var("ID"),))

    def test_region_star(self):
        e = parse_annotation_expr("FE[*, IDE]")
        assert isinstance(e.subs[0], fast.RangeExpr)
        assert e.subs[0].lo is None
        assert e.subs[1] == fast.Var("IDE")

    def test_region_bounds(self):
        e = parse_annotation_expr("XY[1:2, J]")
        r = e.subs[0]
        assert r.lo == fast.IntLit(1) and r.hi == fast.IntLit(2)

    def test_unknown(self):
        e = parse_annotation_expr("unknown(A, B[1], 3)")
        assert isinstance(e, aast.Unknown)
        assert len(e.args) == 3

    def test_unique(self):
        e = parse_annotation_expr("unique(ID, IN, I)")
        assert isinstance(e, aast.Unique)

    def test_intrinsic_call_parens(self):
        e = parse_annotation_expr("ABS(ICOND[1, ID])")
        assert isinstance(e, fast.FuncRef)
        assert e.name == "ABS"

    def test_comparison(self):
        e = parse_annotation_expr("IDEDON[IDE] == 0")
        assert isinstance(e, fast.BinOp) and e.op == "=="

    def test_not_equal(self):
        e = parse_annotation_expr("I != 0")
        assert e.op == "/="

    def test_arith_precedence(self):
        e = parse_annotation_expr("A + B*C")
        assert e.op == "+" and e.right.op == "*"

    def test_bad_character(self):
        with pytest.raises(AnnotationError):
            parse_annotation_expr("A ? B")


FSMP_ANN = """
# annotations for the paper's Figure 13 (slightly reduced)
subroutine FSMP(ID, IDE) {
  XY = unknown(XYG[1, ICOND[1, ID]], NSYMM);
  IRECT = IEGEOM[ID];
  K1 = AK1[IECURV[ID]];
  ISTRES = 0;
  (NDX, NDY, WTDET) = unknown(IRECT, XY, NNPED);
  if (IDEDON[IDE] == 0) {
    IDEDON[IDE] = 1;
    FE[*, IDE] = unknown(WTDET, NQD, NSFE);
    ME[*, IDE] = unknown(WTDET, NQD, NNPED);
  }
  P = unknown(PXY[1, ABS(ICOND[1, ID])], NNPED);
  PE[*, ID] = unknown(P, WTDET, NQD, NNPED);
}
"""

MATMLT_ANN = """
subroutine MATMLT(M1, M2, M3, L, M, N) {
  dimension M1[L, M], M2[M, N], M3[L, N];
  M3 = 0.0;
  do (JN = 1:N)
    do (JM = 1:M)
      M3[*, JN] = M3[*, JN] + M1[*, JM] * M2[JM, JN];
}
"""

ASSEM_ANN = """
subroutine ASSEM(ID, IN) {
  do (I = 1:NDOF) {
    RHSB[unique(ID, I)] = unknown(RHSB[unique(ID, I)], XE[I]);
    RHSI[unique(IN, I)] = unknown(RHSI[unique(IN, I)], XE[I]);
  }
}
"""


class TestSubroutineParsing:
    def test_fsmp(self):
        anns = parse_annotations(FSMP_ANN)
        assert len(anns) == 1
        fsmp = anns[0]
        assert fsmp.name == "FSMP"
        assert fsmp.params == ["ID", "IDE"]
        multi = fsmp.body[4]
        assert isinstance(multi, aast.AAssign)
        assert len(multi.targets) == 3
        cond = fsmp.body[5]
        assert isinstance(cond, aast.AIf)
        assert isinstance(cond.then[1], aast.AAssign)

    def test_matmlt_dimensions(self):
        ann = parse_annotations(MATMLT_ANN)[0]
        dims = ann.declared_dims()
        assert set(dims) == {"M1", "M2", "M3"}
        assert dims["M3"][1].upper == fast.Var("N")

    def test_do_loop(self):
        ann = parse_annotations(MATMLT_ANN)[0]
        do = ann.body[2]
        assert isinstance(do, aast.ADo)
        assert do.var == "JN"
        inner = do.body[0]
        assert isinstance(inner, aast.ADo)

    def test_assem_unique(self):
        ann = parse_annotations(ASSEM_ANN)[0]
        do = ann.body[0]
        assign = do.body[0]
        assert isinstance(assign.targets[0].subs[0], aast.Unique)

    def test_multiple_annotations(self):
        anns = parse_annotations(FSMP_ANN + MATMLT_ANN)
        assert [a.name for a in anns] == ["FSMP", "MATMLT"]

    def test_comments_ignored(self):
        anns = parse_annotations("# leading comment\n" + MATMLT_ANN)
        assert anns[0].name == "MATMLT"


#: a program without the annotated subroutines: only the checks that
#: need no source apply
NO_SOURCE = Program([], "empty")


class TestValidation:
    def test_clean(self):
        ann = parse_annotations(MATMLT_ANN)[0]
        assert check_soundness(NO_SOURCE, ann).violations == []

    def test_subscripted_formal_needs_dims(self):
        ann = parse_annotations(
            "subroutine S(V) { V[3] = 1.0; }")[0]
        problems = check_soundness(NO_SOURCE, ann).violations
        assert any("dimension" in p for p in problems)

    def test_rank_mismatch(self):
        ann = parse_annotations(
            "subroutine S(V) { dimension V[10, 10]; V[3] = 1.0; }")[0]
        problems = check_soundness(NO_SOURCE, ann).violations
        assert any("subscripts" in p for p in problems)

    def test_return_rejected(self):
        ann = parse_annotations("subroutine S(V) { return V; }")[0]
        problems = check_soundness(NO_SOURCE, ann).violations
        assert any("return" in p for p in problems)

    def test_formal_mismatch_against_source(self):
        prog = Program.from_source(
            "      SUBROUTINE S(A, B)\n"
            "      A = B\n"
            "      END\n")
        ann = parse_annotations("subroutine S(A) { A = unknown(); }")[0]
        report = check_soundness(prog, ann)
        assert not report.sound
        assert any("do not match" in p for p in report.violations)

    def test_unique_operands(self):
        ann = parse_annotations(
            "subroutine S(V) { dimension V[10]; "
            "V[unique(2.5)] = 1.0; V[unique()] = 2.0; }")[0]
        problems = check_soundness(NO_SOURCE, ann).violations
        assert any("integer-valued" in p for p in problems)
        assert any("no operands" in p for p in problems)
