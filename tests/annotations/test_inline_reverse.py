"""Integration tests: annotation inlining -> parallelization -> reverse
inlining (the paper's Figure 15 pipeline on its running examples)."""

import pytest

from repro.annotations import (AnnotationInliner, AnnotationRegistry,
                               ReverseInliner)
from repro.annotations.translate import TranslateOptions
from repro.errors import ReverseInlineError
from repro.fortran import ast
from repro.fortran.parser import parse_expression as pe
from repro.fortran.unparser import unparse
from repro.polaris import Polaris, PolarisOptions
from repro.program import Program


def parallel_loops(body):
    """The directive loops of ``body``, in program order."""
    return (s for s in ast.walk_stmts(body)
            if isinstance(s, ast.OmpParallelDo))

# --------------------------------------------------------------------------
# Figure 7 scenario: opaque compositional subroutine FSMP
# --------------------------------------------------------------------------

FSMP_PROGRAM = """
      PROGRAM DRV
      COMMON /ELEM/ FE(8,100), SE(8,100), IDEDON(100)
      COMMON /TMP/ XY(2,64), WTDET(64)
      COMMON /MAP/ IDBEGS(50), NEPSS(50)
      DO 35 ISS = 1, NSS
        DO 30 K = 1, NEPSS(ISS)
          ID = IDBEGS(ISS) + 1 + K
          IDE = K
          CALL FSMP(ID, IDE)
   30   CONTINUE
   35 CONTINUE
      END
      SUBROUTINE FSMP(ID, IDE)
      COMMON /ELEM/ FE(8,100), SE(8,100), IDEDON(100)
      COMMON /TMP/ XY(2,64), WTDET(64)
      CALL GETCR(ID)
      CALL SHAPE1
      IF (IDEDON(IDE).EQ.0) THEN
        IDEDON(IDE) = 1
        CALL FORMS(SE(1,IDE))
      END IF
      CALL FORMF(FE(1,ID))
      END
"""

FSMP_ANN = """
subroutine FSMP(ID, IDE) {
  XY = unknown(ID);
  WTDET = unknown(XY);
  if (IDEDON[IDE] == 0) {
    IDEDON[IDE] = 1;
    SE[*, IDE] = unknown(WTDET);
  }
  FE[*, ID] = unknown(WTDET);
}
"""


def pipeline(src, ann_text, **polaris_opts):
    registry = AnnotationRegistry.from_text(ann_text)
    prog = Program.from_source(src)
    original_text = unparse(prog.files[0])
    from repro.analysis.loops import assign_origins
    for u in prog.units:
        assign_origins(u)
    inl = AnnotationInliner(registry).run(prog)
    report = Polaris(PolarisOptions(**polaris_opts)).run(prog)
    rev = ReverseInliner(registry).run(prog)
    return prog, original_text, inl, report, rev


class TestFsmpScenario:
    def test_inlining_replaces_call(self):
        registry = AnnotationRegistry.from_text(FSMP_ANN)
        prog = Program.from_source(FSMP_PROGRAM)
        result = AnnotationInliner(registry).run(prog)
        assert result.inlined_count == 1
        blocks = [s for s in ast.walk_stmts(prog.unit("DRV").body)
                  if isinstance(s, ast.TaggedBlock)]
        assert len(blocks) == 1
        assert blocks[0].callee == "FSMP"
        assert blocks[0].actuals == (ast.Var("ID"), ast.Var("IDE"))

    def test_k_loop_parallelized(self):
        # the headline result of Section II-B1: with annotations the K
        # loop parallelizes despite the opaque compositional callee
        prog, _, inl, report, _ = pipeline(FSMP_PROGRAM, FSMP_ANN)
        k_verdicts = [v for v in report.verdicts
                      if v.unit == "DRV" and v.var == "K"]
        assert k_verdicts and k_verdicts[0].parallelized
        assert "XY" in k_verdicts[0].private

    def test_without_annotations_serial(self):
        prog = Program.from_source(FSMP_PROGRAM)
        report = Polaris().run(prog)
        k_verdicts = [v for v in report.verdicts
                      if v.unit == "DRV" and v.var == "K"]
        assert k_verdicts and not k_verdicts[0].parallelized
        assert k_verdicts[0].reason == "call"

    def test_reverse_restores_call(self):
        prog, original, _, _, rev = pipeline(FSMP_PROGRAM, FSMP_ANN)
        assert rev.reversed_count == 1
        drv = prog.unit("DRV")
        calls = [s for s in ast.walk_stmts(drv.body)
                 if isinstance(s, ast.CallStmt) and s.name == "FSMP"]
        assert len(calls) == 1
        assert calls[0].args == (ast.Var("ID"), ast.Var("IDE"))
        blocks = [s for s in ast.walk_stmts(drv.body)
                  if isinstance(s, ast.TaggedBlock)]
        assert blocks == []

    def test_no_capture_decls_leak(self):
        prog, _, _, _, _ = pipeline(FSMP_PROGRAM, FSMP_ANN)
        text = unparse(prog.files[0])
        assert "GU" not in text
        assert "$A" not in text

    def test_final_output_is_original_plus_omp(self):
        prog, original, _, _, _ = pipeline(FSMP_PROGRAM, FSMP_ANN)
        final = unparse(prog.files[0])
        stripped = "\n".join(l for l in final.splitlines()
                             if not l.startswith("!$OMP"))
        # code size: identical modulo the directives (the Table II claim)
        assert "CALLFSMP(ID,IDE)" in stripped.replace(" ", "")
        assert "!$OMP PARALLEL DO" in final


# --------------------------------------------------------------------------
# Figures 5/16-19 scenario: MATMLT
# --------------------------------------------------------------------------

MATMLT_PROGRAM = """
      PROGRAM STEP
      COMMON /M/ PP(4,4,15), PHIT(4,4), TM1(4,4)
      DO 15 KS = 1, 15
        IF (KS.GT.1) THEN
          CALL MATMLT(PP(1,1,KS-1), PHIT(1,1), TM1(1,1), 4, 4, 4)
        END IF
   15 CONTINUE
      END
      SUBROUTINE MATMLT(M1, M2, M3, L, M, N)
      DIMENSION M1(1), M2(1), M3(1)
      DO 22 JN = 1, N
        DO 22 JL = 1, L
          M3(JL+(JN-1)*L) = 0.0
   22 CONTINUE
      DO 26 JN = 1, N
        DO 26 JM = 1, M
          DO 26 JL = 1, L
            M3(JL+(JN-1)*L) = M3(JL+(JN-1)*L)
     &          + M1(JL+(JM-1)*L)*M2(JM+(JN-1)*M)
   26 CONTINUE
      END
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


class TestMatmltScenario:
    def test_generated_loops_parallelized(self):
        # Figure 17: the zeroing loops inside the annotation parallelize
        prog, _, inl, report, rev = pipeline(MATMLT_PROGRAM, MATMLT_ANN)
        assert inl.inlined_count == 1
        assert rev.reversed_count == 1
        # directives on generated loops are dropped at reverse time
        assert rev.dropped_inner_directives >= 1

    def test_reverse_restores_exact_actuals(self):
        prog, _, _, _, rev = pipeline(MATMLT_PROGRAM, MATMLT_ANN)
        call = [s for s in ast.walk_stmts(prog.unit("STEP").body)
                if isinstance(s, ast.CallStmt) and s.name == "MATMLT"]
        assert len(call) == 1
        assert call[0].args == (pe("PP(1,1,KS-1)"), pe("PHIT(1,1)"),
                                pe("TM1(1,1)"), pe("4"), pe("4"), pe("4"))

    def test_no_linearization_of_caller(self):
        prog, _, _, _, _ = pipeline(MATMLT_PROGRAM, MATMLT_ANN)
        table = prog.symtab(prog.unit("STEP"))
        assert len(table.info("PP").dims) == 3
        assert len(table.info("TM1").dims) == 2


# --------------------------------------------------------------------------
# Figures 10/11/14 scenario: indirect subscripts via unique
# --------------------------------------------------------------------------

ASSEM_PROGRAM = """
      PROGRAM DRV2
      COMMON /R/ RHSB(99999), RHSI(99999), XE(16)
      COMMON /MAP2/ IDBEGS(50)
      DO 30 K = 1, NEP
        ID = IDBEGS(ISS) + 1 + K
        IN = ID + 1
        CALL ASSEM(ID, IN)
   30 CONTINUE
      END
      SUBROUTINE ASSEM(ID, IN)
      COMMON /R/ RHSB(99999), RHSI(99999), XE(16)
      COMMON /C/ ICOND(16,500), IWHERD(16,500)
      DO 10 I = 1, 16
        RHSB(ICOND(I,ID)) = RHSB(ICOND(I,ID)) + XE(I)
        RHSI(IWHERD(I,IN)) = RHSI(IWHERD(I,IN)) + XE(I)
   10 CONTINUE
      END
"""

ASSEM_ANN = """
subroutine ASSEM(ID, IN) {
  do (I = 1:16) {
    RHSB[unique(ID, I)] = unknown(RHSB[unique(ID, I)], XE[I]);
    RHSI[unique(IN, I)] = unknown(RHSI[unique(IN, I)], XE[I]);
  }
}
"""


class TestAssemScenario:
    def test_k_loop_parallel_with_unique(self):
        prog, _, inl, report, rev = pipeline(ASSEM_PROGRAM, ASSEM_ANN)
        assert inl.inlined_count == 1
        k = [v for v in report.verdicts
             if v.unit == "DRV2" and v.var == "K"]
        assert k and k[0].parallelized

    def test_small_unique_base_defeats_analysis(self):
        # ablation: unique() must be injective over the loop ranges; a
        # base smaller than the inner extent cannot prove independence
        registry = AnnotationRegistry.from_text(ASSEM_ANN)
        prog = Program.from_source(ASSEM_PROGRAM)
        AnnotationInliner(registry,
                          TranslateOptions(unique_base=4)).run(prog)
        report = Polaris().run(prog)
        k = [v for v in report.verdicts
             if v.unit == "DRV2" and v.var == "K"]
        assert k and not k[0].parallelized

    def test_serial_without_annotations(self):
        prog = Program.from_source(ASSEM_PROGRAM)
        report = Polaris().run(prog)
        k = [v for v in report.verdicts
             if v.unit == "DRV2" and v.var == "K"]
        assert k and not k[0].parallelized

    def test_reverse_roundtrip(self):
        prog, _, _, _, rev = pipeline(ASSEM_PROGRAM, ASSEM_ANN)
        assert rev.reversed_count == 1
        calls = [s for s in ast.walk_stmts(prog.unit("DRV2").body)
                 if isinstance(s, ast.CallStmt) and s.name == "ASSEM"]
        assert len(calls) == 1


# --------------------------------------------------------------------------
# matcher tolerance
# --------------------------------------------------------------------------

class TestMatcherTolerance:
    def test_statement_reordering(self):
        registry = AnnotationRegistry.from_text(FSMP_ANN)
        prog = Program.from_source(FSMP_PROGRAM)
        AnnotationInliner(registry).run(prog)
        # manually permute the tagged block's statements
        for s in ast.walk_stmts(prog.unit("DRV").body):
            if isinstance(s, ast.TaggedBlock):
                s.body.reverse()
        rev = ReverseInliner(registry).run(prog)
        assert rev.reversed_count == 1

    def test_corrupted_block_rejected(self):
        registry = AnnotationRegistry.from_text(FSMP_ANN)
        prog = Program.from_source(FSMP_PROGRAM)
        AnnotationInliner(registry).run(prog)
        for s in ast.walk_stmts(prog.unit("DRV").body):
            if isinstance(s, ast.TaggedBlock):
                s.body.append(ast.Assign(ast.Var("HACK"), ast.IntLit(1)))
        with pytest.raises(ReverseInlineError):
            ReverseInliner(registry).run(prog)

    def test_tampered_statement_rejected(self):
        registry = AnnotationRegistry.from_text(FSMP_ANN)
        prog = Program.from_source(FSMP_PROGRAM)
        AnnotationInliner(registry).run(prog)
        for s in ast.walk_stmts(prog.unit("DRV").body):
            if isinstance(s, ast.TaggedBlock):
                s.body[0] = ast.Assign(ast.Var("HACK"), ast.IntLit(1))
        with pytest.raises(ReverseInlineError):
            ReverseInliner(registry).run(prog)

    def test_missing_annotation_rejected(self):
        registry = AnnotationRegistry.from_text(FSMP_ANN)
        prog = Program.from_source(FSMP_PROGRAM)
        AnnotationInliner(registry).run(prog)
        empty = AnnotationRegistry()
        with pytest.raises(ReverseInlineError):
            ReverseInliner(empty).run(prog)

    def test_unparse_reparse_between_phases(self):
        # the pipeline survives serialization between inline and reverse
        registry = AnnotationRegistry.from_text(FSMP_ANN)
        prog = Program.from_source(FSMP_PROGRAM)
        AnnotationInliner(registry).run(prog)
        Polaris().run(prog)
        text = unparse(prog.files[0])
        prog2 = Program.from_source(text)
        rev = ReverseInliner(registry).run(prog2)
        assert rev.reversed_count == 1
