"""Execution semantics of the dialect control-flow constructs, checked
bit-for-bit across the tree-walking and compiled backends."""

import pytest

from repro.errors import InterpreterError
from repro.program import Program
from repro.runtime import CompiledInterpreter, Interpreter
from repro.runtime.difftest import backend_equivalence


def equivalent(src, inputs=None):
    program = Program.from_source(src)
    divergence = backend_equivalence(program, inputs)
    assert divergence is None, divergence


def run_tree(src):
    return Interpreter(Program.from_source(src)).run()


class TestComputedGoto:
    def test_dispatch_in_range(self):
        src = ("      PROGRAM P\n"
               "      COMMON /R/ B(3)\n"
               "      K = 2\n"
               "      GO TO (10, 20, 30), K\n"
               "   10 B(1) = 1.0\n"
               "      GO TO 40\n"
               "   20 B(2) = 2.0\n"
               "      GO TO 40\n"
               "   30 B(3) = 3.0\n"
               "   40 CONTINUE\n"
               "      END\n")
        result = run_tree(src)
        assert list(result.commons["R"]) == [0.0, 2.0, 0.0]
        equivalent(src)

    @pytest.mark.parametrize("sel", [0, 4])
    def test_out_of_range_falls_through(self, sel):
        # F77: an index outside 1..len(targets) continues at the next
        # statement
        src = ("      PROGRAM P\n"
               "      COMMON /R/ X\n"
               f"      K = {sel}\n"
               "      GO TO (10, 20), K\n"
               "      X = 9.0\n"
               "      GO TO 30\n"
               "   10 X = 1.0\n"
               "      GO TO 30\n"
               "   20 X = 2.0\n"
               "   30 CONTINUE\n"
               "      END\n")
        result = run_tree(src)
        assert result.commons["R"][0] == 9.0
        equivalent(src)

    def test_cost_parity(self):
        src = ("      PROGRAM P\n"
               "      COMMON /R/ X\n"
               "      K = 1\n"
               "      GO TO (10), K\n"
               "   10 X = 1.0\n"
               "      END\n")
        prog = Program.from_source(src)
        tree = Interpreter(prog).run()
        compiled = CompiledInterpreter(prog).run()
        assert tree.cost == compiled.cost


class TestAssignedGoto:
    def test_assign_then_jump(self):
        src = ("      PROGRAM P\n"
               "      COMMON /R/ X\n"
               "      ASSIGN 20 TO IGO\n"
               "      GO TO IGO, (10, 20)\n"
               "   10 X = 1.0\n"
               "      GO TO 30\n"
               "   20 X = 2.0\n"
               "   30 CONTINUE\n"
               "      END\n")
        result = run_tree(src)
        assert result.commons["R"][0] == 2.0
        equivalent(src)

    def test_missing_target_list_errors_in_both_backends(self):
        # an assigned GOTO without a label list is unanalyzable control
        # flow; both backends must refuse identically
        src = ("      PROGRAM P\n"
               "      ASSIGN 10 TO IGO\n"
               "      GO TO IGO\n"
               "   10 CONTINUE\n"
               "      END\n")
        prog = Program.from_source(src)
        with pytest.raises(InterpreterError):
            Interpreter(prog).run()
        with pytest.raises(InterpreterError):
            CompiledInterpreter(prog).run()


class TestDataAndEquivalence:
    def test_data_initialization_executes(self):
        src = ("      PROGRAM P\n"
               "      COMMON /R/ T\n"
               "      REAL W(4)\n"
               "      DATA W /2*1.5, 2*0.5/\n"
               "      T = W(1) + W(2) + W(3) + W(4)\n"
               "      END\n")
        result = run_tree(src)
        assert result.commons["R"][0] == 4.0
        equivalent(src)

    def test_corpus_style_program_equivalence(self):
        # the mixed acceptance shape: DATA + computed GOTO feeding loops
        src = ("      PROGRAM P\n"
               "      COMMON /R/ A(8)\n"
               "      REAL W(8)\n"
               "      DATA W /8*0.25/\n"
               "      K = 2\n"
               "      GO TO (10, 20), K\n"
               "   10 CONTINUE\n"
               "   20 CONTINUE\n"
               "      DO 30 I = 1, 8\n"
               "        A(I) = A(I) + W(I)\n"
               "   30 CONTINUE\n"
               "      END\n")
        equivalent(src)
