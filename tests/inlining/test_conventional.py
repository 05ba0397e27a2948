"""Tests for the conventional inliner: heuristics, binding, pathologies."""

import pytest

from repro.analysis.callgraph import build_callgraph
from repro.fortran import ast
from repro.fortran.unparser import unparse
from repro.inlining import ConventionalInliner, InlinePolicy
from repro.polaris import Polaris
from repro.program import Program


def parallel_loops(body):
    """The directive loops of ``body``, in program order."""
    return (s for s in ast.walk_stmts(body)
            if isinstance(s, ast.OmpParallelDo))


def inline(src, **policy):
    prog = Program.from_source(src)
    result = ConventionalInliner(InlinePolicy(**policy)).run(prog)
    return prog, result


class TestHeuristics:
    def check(self, src, callee, in_loop=True, **policy):
        prog = Program.from_source(src)
        graph = build_callgraph(prog)
        return InlinePolicy(**policy).rejection_reason(
            prog, graph, callee, in_loop)

    LEAF = ("      SUBROUTINE MAIN\n"
            "      CALL LEAF(1)\n"
            "      END\n"
            "      SUBROUTINE LEAF(I)\n"
            "      J = I\n"
            "      END\n")

    def test_accepts_simple_leaf(self):
        assert self.check(self.LEAF, "LEAF") is None

    def test_rejects_outside_loop(self):
        assert self.check(self.LEAF, "LEAF", in_loop=False) == "not-in-loop"

    def test_rejects_external(self):
        assert self.check(self.LEAF, "MYSTERY") == "no-source"

    def test_rejects_recursive(self):
        src = ("      SUBROUTINE R(N)\n"
               "      IF (N.GT.0) CALL R(N-1)\n"
               "      END\n")
        # recursion is a call: refused with every other caller
        assert self.check(src, "R") == "makes-calls"

    def test_rejects_io(self):
        src = ("      SUBROUTINE NOISY(I)\n"
               "      WRITE(6,*) I\n"
               "      END\n")
        assert self.check(src, "NOISY") == "io"

    def test_rejects_caller_of_others(self):
        # the FSMP exclusion: compositional subroutines are left out
        src = ("      SUBROUTINE FSMP(ID)\n"
               "      CALL GETCR(ID)\n"
               "      END\n"
               "      SUBROUTINE GETCR(ID)\n"
               "      J = ID\n"
               "      END\n")
        assert self.check(src, "FSMP") == "makes-calls"
        assert self.check(src, "GETCR") is None

    def test_rejects_too_large(self):
        stmts = "".join(f"      X{i} = {i}\n" for i in range(160))
        src = "      SUBROUTINE BIG(I)\n" + stmts + "      END\n"
        assert self.check(src, "BIG") == "too-large"
        assert self.check(src, "BIG", max_statements=500) is None

    def test_rejects_mid_return(self):
        src = ("      SUBROUTINE MR(I)\n"
               "      IF (I.GT.0) RETURN\n"
               "      I = 1\n"
               "      END\n")
        assert self.check(src, "MR") == "mid-return"

    def test_trailing_return_ok(self):
        src = ("      SUBROUTINE TR(I)\n"
               "      I = 1\n"
               "      RETURN\n"
               "      END\n")
        assert self.check(src, "TR") is None


SIMPLE = (
    "      SUBROUTINE DRIVER(A, N)\n"
    "      DIMENSION A(*)\n"
    "      DO 10 I = 1, N\n"
    "        CALL SCALE(A, I, 2.0)\n"
    "   10 CONTINUE\n"
    "      END\n"
    "      SUBROUTINE SCALE(V, K, F)\n"
    "      DIMENSION V(*)\n"
    "      T = V(K)\n"
    "      V(K) = T*F\n"
    "      END\n")


class TestExpansion:
    def test_call_replaced(self):
        prog, result = inline(SIMPLE)
        assert result.inlined_count == 1
        driver = prog.unit("DRIVER")
        calls = [s for s in ast.walk_stmts(driver.body)
                 if isinstance(s, ast.CallStmt)]
        assert calls == []

    def test_locals_renamed(self):
        prog, _ = inline(SIMPLE)
        text = unparse(prog.unit("DRIVER"))
        assert "T$I1" in text

    def test_temp_copy_in_for_expression_actual(self):
        prog, _ = inline(SIMPLE)
        text = unparse(prog.unit("DRIVER"))
        assert "F$A1 = 2.0" in text

    def test_scalar_formal_bound_by_name(self):
        prog, _ = inline(SIMPLE)
        driver = prog.unit("DRIVER")
        # V(K) -> A(I): subscripts flow through scalar binding
        writes = [s for s in ast.walk_stmts(driver.body)
                  if isinstance(s, ast.Assign)
                  and isinstance(s.target, ast.ArrayRef)]
        assert writes[0].target == ast.ArrayRef("A", (ast.Var("I"),))

    def test_callee_unit_unchanged(self):
        prog, _ = inline(SIMPLE)
        scale = prog.unit("SCALE")
        assert any(isinstance(s, ast.Assign) for s in scale.body)

    def test_code_size_grows(self):
        prog0 = Program.from_source(SIMPLE)
        prog, _ = inline(SIMPLE)
        assert prog.total_lines() > prog0.total_lines()

    def test_inlined_loops_keep_origin(self):
        src = ("      SUBROUTINE DRIVER(A, N)\n"
               "      DIMENSION A(100,8)\n"
               "      DO 10 I = 1, N\n"
               "        CALL ZERO(A(1,I), 100)\n"
               "   10 CONTINUE\n"
               "      END\n"
               "      SUBROUTINE ZERO(V, M)\n"
               "      DIMENSION V(*)\n"
               "      DO 20 J = 1, M\n"
               "        V(J) = 0.0\n"
               "   20 CONTINUE\n"
               "      END\n")
        prog = Program.from_source(src)
        from repro.analysis.loops import assign_origins, iter_loops
        for u in prog.units:
            assign_origins(u)
        ConventionalInliner().run(prog)
        driver = prog.unit("DRIVER")
        inner = [i for i in iter_loops(driver.body)
                 if i.loop.var.startswith("J")]
        assert inner and inner[0].origin == "ZERO:0"
        assert inner[0].loop.var == "J$I1"  # renamed site-uniquely

    def test_labels_renumbered_no_clash(self):
        src = ("      SUBROUTINE DRIVER(A, N)\n"
               "      DIMENSION A(100,8)\n"
               "      DO 10 I = 1, N\n"
               "        CALL ZERO(A(1,I), 100)\n"
               "   10 CONTINUE\n"
               "      END\n"
               "      SUBROUTINE ZERO(V, M)\n"
               "      DIMENSION V(*)\n"
               "      DO 10 J = 1, M\n"
               "        V(J) = 0.0\n"
               "   10 CONTINUE\n"
               "      END\n")
        prog, result = inline(src)
        assert result.inlined_count == 1
        # reparse the unparsed output: label collisions would break it
        text = unparse(prog.unit("DRIVER"))
        reparsed = Program.from_source(text)
        assert reparsed.units[0].name == "DRIVER"


class TestFigure23Pathology:
    SRC = (
        "      PROGRAM MAIN\n"
        "      COMMON /BLK/ T(100000), IX(64)\n"
        "      DO 5 KS = 1, 10\n"
        "        CALL PCINIT(T(IX(7)+1), T(IX(8)+1), 16)\n"
        "    5 CONTINUE\n"
        "      END\n"
        "      SUBROUTINE PCINIT(X2, Y2, NSP)\n"
        "      DIMENSION X2(*), Y2(*)\n"
        "      COMMON /BLK2/ FX(1000), FY(1000)\n"
        "      DO 200 J = 1, NSP\n"
        "        X2(J) = FX(J)*2.0\n"
        "        Y2(J) = FY(J)*2.0\n"
        "  200 CONTINUE\n"
        "      END\n")

    def test_subscripted_subscripts_created(self):
        prog, result = inline(self.SRC)
        assert result.inlined_count == 1
        text = unparse(prog.unit("MAIN"))
        assert "T(IX(7)+1+(J$I1-1))" in text.replace(" ", "")

    def test_parallelism_lost_after_inlining(self):
        # before inlining: PCINIT's loop parallelizes (distinct formals)
        base = Program.from_source(self.SRC)
        from repro.analysis.loops import assign_origins
        for u in base.units:
            assign_origins(u)
        conv = base.clone()

        rep_base = Polaris().run(base)
        assert any(v.parallelized and v.unit == "PCINIT"
                   for v in rep_base.verdicts)

        ConventionalInliner().run(conv)
        rep_conv = Polaris().run(conv)
        # the PCINIT loop origin is parallelized in the baseline but the
        # inlined copy in MAIN is not (T(IX(7)+J) vs T(IX(8)+J) conflict)
        pcinit_origin = next(o for o in rep_base.parallel_origins()
                             if o.startswith("PCINIT"))
        main_copy = [v for v in rep_conv.verdicts
                     if v.origin == pcinit_origin and v.unit == "MAIN"]
        assert main_copy and not main_copy[0].parallelized


class TestFigure45Pathology:
    SRC = (
        "      SUBROUTINE STEP(PP, TM1, N1, NS)\n"
        "      DIMENSION PP(N1,N1,NS), TM1(N1,N1)\n"
        "      DO 15 KS = 2, NS\n"
        "        CALL MATMLT(PP(1,1,KS-1), TM1(1,1), N1*N1)\n"
        "   15 CONTINUE\n"
        "      DO 25 J = 1, N1\n"
        "        DO 24 I = 1, N1\n"
        "          TM1(I,J) = 0.0\n"
        "   24   CONTINUE\n"
        "   25 CONTINUE\n"
        "      END\n"
        "      SUBROUTINE MATMLT(M1, M3, L)\n"
        "      DIMENSION M1(L), M3(L)\n"
        "      DO 22 K = 1, L\n"
        "        M3(K) = M1(K)\n"
        "   22 CONTINUE\n"
        "      END\n")

    def test_caller_arrays_linearized(self):
        prog, result = inline(self.SRC)
        assert result.inlined_count == 1
        step = prog.unit("STEP")
        table = prog.symtab(step)
        assert len(table.info("PP").dims) == 1
        assert len(table.info("TM1").dims) == 1
        # unrelated loop's reference was rewritten through the formula
        text = unparse(step).replace(" ", "")
        assert "TM1(I-1+(J-1)*N1+1)" in text

    def test_unrelated_loop_loses_parallelism(self):
        base = Program.from_source(self.SRC)
        from repro.analysis.loops import assign_origins
        for u in base.units:
            assign_origins(u)
        conv = base.clone()
        rep_base = Polaris().run(base)
        ConventionalInliner().run(conv)
        rep_conv = Polaris().run(conv)
        # the J/I zeroing nest parallelizes before, not after (N1*(J-1)
        # products are non-affine)
        assert len(rep_base.parallel_origins()
                   - rep_conv.parallel_origins()) >= 1


class TestBindingDeclined:
    def test_common_mismatch_declines(self):
        src = ("      SUBROUTINE A\n"
               "      COMMON /B/ X(10), Y(10)\n"
               "      DO 1 I = 1, 5\n"
               "        CALL C(I)\n"
               "    1 CONTINUE\n"
               "      END\n"
               "      SUBROUTINE C(I)\n"
               "      COMMON /B/ X(10), Z(5), W(5)\n"
               "      X(I) = 0.0\n"
               "      END\n")
        prog, result = inline(src)
        assert result.inlined_count == 0
        assert "binding" in result.sites[0].reason
