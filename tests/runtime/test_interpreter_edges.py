"""Edge-case tests for the interpreter's semantics and fault handling."""

import pytest

from repro.errors import InterpreterError
from repro.program import Program
from repro.runtime.interpreter import Interpreter
from repro.runtime.interpreter import outputs_equal


def run(src, **kw):
    return Interpreter(Program.from_source(src), **kw).run()


class TestFaults:
    def test_out_of_bounds_read(self):
        with pytest.raises(InterpreterError, match="out of bounds"):
            run("      PROGRAM P\n"
                "      DIMENSION A(5)\n"
                "      X = A(9)\n"
                "      END\n")

    def test_out_of_bounds_write(self):
        with pytest.raises(InterpreterError, match="out of bounds"):
            run("      PROGRAM P\n"
                "      DIMENSION A(5)\n"
                "      A(0) = 1.0\n"
                "      END\n")

    def test_rank_mismatch(self):
        with pytest.raises(InterpreterError, match="subscripts"):
            run("      PROGRAM P\n"
                "      DIMENSION A(5,5)\n"
                "      A(2) = 1.0\n"
                "      END\n")

    def test_goto_without_target(self):
        with pytest.raises(InterpreterError, match="GOTO"):
            run("      PROGRAM P\n"
                "      GO TO 99\n"
                "      END\n")

    def test_zero_step_do(self):
        with pytest.raises(InterpreterError, match="step"):
            run("      PROGRAM P\n"
                "      DO 10 I = 1, 5, 0\n"
                "   10 CONTINUE\n"
                "      END\n")

    def test_read_beyond_input(self):
        with pytest.raises(InterpreterError, match="READ"):
            run("      PROGRAM P\n"
                "      READ(5,*) X\n"
                "      END\n", inputs=[])

    def test_step_limit(self):
        with pytest.raises(InterpreterError, match="step limit"):
            run("      PROGRAM P\n"
                "      N = 0\n"
                "   10 N = N + 1\n"
                "      IF (N.GT.0) GO TO 10\n"
                "      END\n", max_steps=10_000)

    def test_assumed_size_view_is_bounded_by_storage(self):
        with pytest.raises(InterpreterError):
            run("      PROGRAM P\n"
                "      COMMON /C/ A(10)\n"
                "      CALL W(A)\n"
                "      END\n"
                "      SUBROUTINE W(V)\n"
                "      DIMENSION V(*)\n"
                "      V(50) = 1.0\n"
                "      END\n")


class TestSemantics:
    def test_negative_step_loop(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ N\n"
                "      N = 0\n"
                "      DO 10 I = 10, 1, -2\n"
                "        N = N + 1\n"
                "   10 CONTINUE\n"
                "      END\n")
        assert r.commons["R"][0] == 5.0

    def test_do_variable_after_zero_trip(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ IV\n"
                "      DO 10 I = 5, 1\n"
                "   10 CONTINUE\n"
                "      IV = I\n"
                "      END\n")
        assert r.commons["R"][0] == 5.0  # start value, no trips

    def test_expression_bounds_frozen_at_entry(self):
        # Fortran computes the trip count once; changing N inside the
        # loop must not change the iteration count
        r = run("      PROGRAM P\n"
                "      COMMON /R/ N, CNT\n"
                "      N = 5\n"
                "      CNT = 0.0\n"
                "      DO 10 I = 1, N\n"
                "        N = 1\n"
                "        CNT = CNT + 1.0\n"
                "   10 CONTINUE\n"
                "      END\n")
        assert r.commons["R"][1] == 5.0

    def test_integer_truncation_on_store(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ I\n"
                "      I = 7.9\n"
                "      END\n")
        assert r.commons["R"][0] == 7.0

    def test_logical_ops(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X\n"
                "      LOGICAL L1, L2\n"
                "      L1 = .TRUE.\n"
                "      L2 = .NOT. L1\n"
                "      IF (L1 .AND. .NOT. L2) X = 1.0\n"
                "      END\n")
        assert r.commons["R"][0] == 1.0

    def test_exponent_integer_vs_real(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ A, B\n"
                "      A = 2.0**3\n"
                "      B = (-2.0)**2\n"
                "      END\n")
        assert list(r.commons["R"]) == [8.0, 4.0]

    def test_nested_function_calls(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X\n"
                "      X = ADD1(ADD1(ADD1(0.0)))\n"
                "      END\n"
                "      REAL FUNCTION ADD1(V)\n"
                "      ADD1 = V + 1.0\n"
                "      END\n")
        assert r.commons["R"][0] == 3.0

    def test_common_scalar_then_array_layout(self):
        r = run("      PROGRAM P\n"
                "      COMMON /M/ N, A(3), Q\n"
                "      N = 7\n"
                "      A(1) = 1.0\n"
                "      A(3) = 3.0\n"
                "      Q = 9.0\n"
                "      CALL PEEK\n"
                "      END\n"
                "      SUBROUTINE PEEK\n"
                "      COMMON /M/ FLAT(5)\n"
                "      COMMON /R/ OUT1, OUT2\n"
                "      OUT1 = FLAT(1)\n"
                "      OUT2 = FLAT(5)\n"
                "      END\n")
        assert list(r.commons["R"]) == [7.0, 9.0]


class TestOutputsEqual:
    def test_numeric_tolerance(self):
        assert outputs_equal(["1.0000000001 X"], ["1.0 X"], rtol=1e-6)

    def test_text_mismatch(self):
        assert not outputs_equal(["A"], ["B"])

    def test_length_mismatch(self):
        assert not outputs_equal(["1.0"], ["1.0", "2.0"])

    def test_numeric_divergence(self):
        assert not outputs_equal(["1.0"], ["1.5"])
