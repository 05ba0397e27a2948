"""Tests for loop discovery, def/use collection, call graph and
side-effect summaries."""

from repro.analysis.callgraph import build_callgraph
from repro.analysis.defuse import collect_accesses
from repro.analysis.loops import (assign_origins, iter_loops, loop_ctx,
                                  trip_count)
from repro.analysis.sideeffects import compute_summaries
from repro.fortran import ast
from repro.fortran.parser import parse_source
from repro.fortran.symbols import build_symbol_table
from repro.program import Program


def unit_of(src):
    return parse_source(src).units[0]


class TestLoops:
    SRC = ("      SUBROUTINE S\n"
           "      DO 10 I = 1, 10\n"
           "        DO 20 J = 1, 5\n"
           "          A(I,J) = 0.0\n"
           "   20   CONTINUE\n"
           "        IF (I.GT.2) THEN\n"
           "          DO K = 1, N\n"
           "            B(K) = 0.0\n"
           "          END DO\n"
           "        END IF\n"
           "   10 CONTINUE\n"
           "      END\n")

    def test_iter_loops_order_and_context(self):
        unit = unit_of(self.SRC)
        infos = list(iter_loops(unit.body))
        assert [i.loop.var for i in infos] == ["I", "J", "K"]
        assert infos[0].depth == 0
        assert infos[1].enclosing[0].var == "I"
        assert infos[2].index_vars == ["I", "K"]

    def test_assign_origins_stable(self):
        unit = unit_of(self.SRC)
        assign_origins(unit)
        infos = list(iter_loops(unit.body))
        assert infos[0].origin == "S:0"
        assert infos[2].origin == "S:2"
        # origins survive cloning (the Table II counting requirement)
        copy = ast.clone(unit)
        cloned = list(iter_loops(copy.body))
        assert [c.origin for c in cloned] == [i.origin for i in infos]

    def test_loop_ctx(self):
        unit = unit_of(self.SRC)
        infos = list(iter_loops(unit.body))
        assert loop_ctx(infos[0].loop).lower == 1
        assert loop_ctx(infos[0].loop).upper == 10
        assert loop_ctx(infos[2].loop).upper is None

    def test_trip_count(self):
        unit = unit_of(self.SRC)
        infos = list(iter_loops(unit.body))
        assert trip_count(infos[0].loop) == 10
        assert trip_count(infos[2].loop) is None

    def test_trip_count_with_step(self):
        unit = unit_of("      SUBROUTINE S\n"
                       "      DO 10 I = 1, 10, 3\n"
                       "   10 CONTINUE\n"
                       "      END\n")
        loop = list(iter_loops(unit.body))[0].loop
        assert trip_count(loop) == 4


class TestDefUse:
    def test_assign_accesses(self):
        unit = unit_of("      SUBROUTINE S\n"
                       "      DIMENSION A(10), B(10)\n"
                       "      A(I) = B(J) + X\n"
                       "      END\n")
        acc = collect_accesses(unit.body, build_symbol_table(unit))
        assert acc.scalar_reads == {"I", "J", "X"}
        assert ("A", (ast.Var("I"),), True) in acc.array_accesses
        assert ("B", (ast.Var("J"),), False) in acc.array_accesses

    def test_io_read_writes_items(self):
        unit = unit_of("      SUBROUTINE S\n"
                       "      READ(5,*) N, X\n"
                       "      WRITE(6,*) Y\n"
                       "      END\n")
        acc = collect_accesses(unit.body, build_symbol_table(unit))
        assert {"N", "X"} <= acc.scalar_writes
        assert "Y" in acc.scalar_reads
        assert acc.has_io

    def test_call_args_recorded(self):
        unit = unit_of("      SUBROUTINE S\n"
                       "      DIMENSION FE(10,5)\n"
                       "      CALL FORMF(FE(1,ID))\n"
                       "      END\n")
        acc = collect_accesses(unit.body, build_symbol_table(unit))
        assert acc.has_call
        assert "FE" in acc.call_args
        assert "ID" in acc.scalar_reads

    def test_do_loop_var_is_write(self):
        unit = unit_of("      SUBROUTINE S\n"
                       "      DO I = 1, N\n"
                       "      END DO\n"
                       "      END\n")
        acc = collect_accesses(unit.body, build_symbol_table(unit))
        assert "I" in acc.scalar_writes
        assert "N" in acc.scalar_reads

    def test_goto_stop_flags(self):
        unit = unit_of("      SUBROUTINE S\n"
                       "      GO TO 10\n"
                       "   10 STOP\n"
                       "      END\n")
        acc = collect_accesses(unit.body, build_symbol_table(unit))
        assert acc.has_goto and acc.has_stop

    def test_callees_calls_first_then_functions_in_statement_order(self):
        # an IF block's conditions precede its blocks, an assignment's
        # target precedes its value: the order legality reports them in
        prog = Program.from_source(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(N)\n"
            "      IF (F1(N) .GT. 0) THEN\n"
            "        A(1) = F2(N) + SQRT(A(2))\n"
            "      ELSE IF (F3(N) .GT. 0) THEN\n"
            "        CALL C1(A)\n"
            "      ENDIF\n"
            "      A(IF4(N)) = F5(N) + F1(N)\n"
            "      CALL C2(A)\n"
            "      END\n")
        unit = prog.units[0]
        acc = collect_accesses(unit.body, prog.symtab(unit))
        assert acc.callees == ["C1", "C2", "F1", "F3", "F2", "IF4", "F5"]

    def test_array_accesses_in_textual_order_with_their_loops(self):
        unit = unit_of("      SUBROUTINE S(A, B, N)\n"
                       "      DIMENSION A(N), B(N)\n"
                       "      IF (B(1) .GT. 0) THEN\n"
                       "        DO J = 1, N\n"
                       "          A(J) = B(J)\n"
                       "        END DO\n"
                       "      ELSE IF (B(2) .GT. 0) THEN\n"
                       "        A(B(3)) = 0\n"
                       "      ENDIF\n"
                       "      RETURN\n"
                       "      END\n")
        acc = collect_accesses(unit.body, build_symbol_table(unit))
        inner = unit.body[0].arms[0][1][0]
        one, two, three, j = (ast.IntLit(1), ast.IntLit(2), ast.IntLit(3),
                              ast.Var("J"))
        assert acc.array_accesses == [
            ("B", (one,), False), ("B", (j,), False), ("A", (j,), True),
            ("B", (two,), False), ("B", (three,), False),
            ("A", (ast.ArrayRef("B", (three,)),), True)]
        assert acc.array_loops == [(), (inner,), (inner,), (), (), ()]
        assert acc.do_vars == {"J"}
        assert acc.has_return and not acc.has_alt_return


MULTI = """
      PROGRAM MAIN
      COMMON /G/ X(100)
      CALL OUTER
      END
      SUBROUTINE OUTER
      COMMON /G/ X(100)
      CALL LEAF(X(1))
      CALL MYSTERY
      END
      SUBROUTINE LEAF(V)
      V = 1.0
      END
      SUBROUTINE PUREF(A, B)
      B = A
      END
"""


class TestCallGraphAndSummaries:
    def test_callgraph_edges(self):
        prog = Program.from_source(MULTI)
        g = build_callgraph(prog)
        assert g.callees("MAIN") == {"OUTER"}
        assert g.callees("OUTER") == {"LEAF", "MYSTERY"}
        assert "MYSTERY" in g.unknown

    def test_recursion_detected(self):
        prog = Program.from_source(
            "      SUBROUTINE R(N)\n"
            "      IF (N.GT.0) CALL R(N-1)\n"
            "      END\n")
        g = build_callgraph(prog)
        assert g.is_recursive("R")

    def test_bottom_up_order(self):
        prog = Program.from_source(MULTI)
        order = build_callgraph(prog).topological_bottom_up()
        assert order.index("LEAF") < order.index("OUTER")
        assert order.index("OUTER") < order.index("MAIN")

    def test_leaf_summary(self):
        prog = Program.from_source(MULTI)
        summaries = compute_summaries(prog)
        leaf = summaries["LEAF"]
        assert leaf.mod == {"V"}
        assert not leaf.has_io and not leaf.opaque

    def test_effects_propagate_through_args(self):
        prog = Program.from_source(MULTI)
        outer = compute_summaries(prog)["OUTER"]
        assert "X" in outer.mod  # LEAF writes V which is bound to X(1)
        assert outer.opaque      # MYSTERY is an external library routine

    def test_pure_function_summary(self):
        prog = Program.from_source(MULTI)
        s = compute_summaries(prog)["PUREF"]
        assert s.mod == {"B"} and s.ref == {"A"}
        assert not s.pure  # writes a formal

    def test_genuinely_pure(self):
        prog = Program.from_source(
            "      DOUBLE PRECISION FUNCTION SQ(X)\n"
            "      SQ = X*X\n"
            "      END\n")
        s = compute_summaries(prog)["SQ"]
        assert s.pure
