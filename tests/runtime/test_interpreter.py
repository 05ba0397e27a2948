"""Interpreter unit tests: semantics of the Fortran 77 subset."""

import numpy as np
import pytest

from repro.errors import InterpreterError
from repro.fortran import ast
from repro.program import Program
from repro.runtime.interpreter import Interpreter
from repro.runtime.backend import make_interpreter
from repro.runtime.values import ArrayView, ScalarRef


def run(src, inputs=None):
    prog = Program.from_source(src)
    return Interpreter(prog, inputs=inputs).run()


def common(result, block):
    return result.commons[block.upper()]


class TestValues:
    def test_scalar_ref_integer_truncates(self):
        buf = np.zeros(4)
        r = ScalarRef(buf, 1, "INTEGER")
        r.set(3.7)
        assert r.get() == 3.0

    def test_column_major_layout(self):
        buf = np.arange(12, dtype=np.float64)
        v = ArrayView(buf, 0, [1, 1], [3, 4], "REAL", "A")
        # A(2,3) -> offset (2-1) + (3-1)*3 = 7
        assert v.get([2, 3]) == 7.0

    def test_lower_bounds(self):
        buf = np.arange(10, dtype=np.float64)
        v = ArrayView(buf, 0, [0], [10], "REAL", "A")
        assert v.get([0]) == 0.0
        assert v.get([9]) == 9.0

    def test_bounds_check(self):
        buf = np.zeros(6)
        v = ArrayView(buf, 0, [1], [6], "REAL", "A")
        with pytest.raises(InterpreterError):
            v.get([7])

    def test_subview_offsets(self):
        buf = np.arange(20, dtype=np.float64)
        v = ArrayView(buf, 0, [1], [20], "REAL", "A")
        sub = v.subview([5], [1], [4], "REAL", "B")
        assert sub.get([1]) == 4.0  # element A(5)


class TestBasics:
    def test_assignment_and_arithmetic(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X, Y\n"
                "      X = 3.0\n"
                "      Y = X*2.0 + 1.0\n"
                "      END\n")
        assert common(r, "R")[1] == 7.0

    def test_integer_division_truncates(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ I, J\n"
                "      I = 7/2\n"
                "      J = (-7)/2\n"
                "      END\n")
        assert common(r, "R")[0] == 3.0
        assert common(r, "R")[1] == -3.0

    @pytest.mark.parametrize("backend", ["tree", "compiled"])
    def test_shared_division_is_typed_per_unit(self, backend):
        # expressions are shared values: a callee and its inlined copy
        # may hold one ``A/B`` node whose operands the units type
        # differently (INTEGER in P, REAL in S), and each unit must get
        # its own quotient
        prog = Program.from_source(
            "      PROGRAM P\n"
            "      COMMON /R/ X, Y\n"
            "      INTEGER IA, IB\n"
            "      IA = 7\n"
            "      IB = 2\n"
            "      X = IA/IB\n"
            "      CALL S(Y)\n"
            "      END\n"
            "      SUBROUTINE S(Z)\n"
            "      REAL IA, IB\n"
            "      IA = 7.0\n"
            "      IB = 2.0\n"
            "      Z = 0.0\n"
            "      END\n")
        quotient = prog.unit("P").body[2].value
        prog.unit("S").body[2] = ast.Assign(ast.Var("Z"), quotient)
        r = make_interpreter(prog, backend).run()
        assert list(common(r, "R")) == [3.0, 3.5]

    def test_power(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X\n"
                "      X = 2.0**10\n"
                "      END\n")
        assert common(r, "R")[0] == 1024.0

    def test_do_loop_trip_semantics(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ N, I\n"
                "      N = 0\n"
                "      DO 10 I = 1, 10, 3\n"
                "        N = N + 1\n"
                "   10 CONTINUE\n"
                "      END\n")
        assert common(r, "R")[0] == 4.0   # trips
        assert common(r, "R")[1] == 13.0  # final DO variable value

    def test_zero_trip_loop(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ N\n"
                "      N = 0\n"
                "      DO 10 I = 5, 1\n"
                "        N = N + 1\n"
                "   10 CONTINUE\n"
                "      END\n")
        assert common(r, "R")[0] == 0.0

    def test_if_elseif_else(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X\n"
                "      I = 5\n"
                "      IF (I.LT.0) THEN\n"
                "        X = 1.0\n"
                "      ELSE IF (I.EQ.5) THEN\n"
                "        X = 2.0\n"
                "      ELSE\n"
                "        X = 3.0\n"
                "      END IF\n"
                "      END\n")
        assert common(r, "R")[0] == 2.0

    def test_goto_forward_and_back(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ N\n"
                "      N = 0\n"
                "   20 N = N + 1\n"
                "      IF (N.LT.3) GO TO 20\n"
                "      END\n")
        assert common(r, "R")[0] == 3.0

    def test_stop_message(self):
        r = run("      PROGRAM P\n"
                "      STOP 'DONE'\n"
                "      END\n")
        assert r.stop_message == "DONE"

    def test_write_output(self):
        r = run("      PROGRAM P\n"
                "      X = 1.5\n"
                "      WRITE(6,*) X, 2.5\n"
                "      END\n")
        assert r.output == ["1.5 2.5"]

    def test_read_inputs(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X, N\n"
                "      READ(5,*) X, N\n"
                "      END\n", inputs=[2.5, 7])
        assert common(r, "R")[0] == 2.5
        assert common(r, "R")[1] == 7.0

    def test_parameter_and_data(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ A(5)\n"
                "      PARAMETER (N=5)\n"
                "      DIMENSION B(3)\n"
                "      DATA B /1.0, 2.0, 3.0/\n"
                "      DO 10 I = 1, N\n"
                "        A(I) = B(1) + B(3)\n"
                "   10 CONTINUE\n"
                "      END\n")
        assert list(common(r, "R")) == [4.0] * 5

    def test_intrinsics(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ A, B, C, D\n"
                "      A = SQRT(16.0)\n"
                "      B = ABS(-3.5)\n"
                "      C = MAX(1.0, 7.0, 3.0)\n"
                "      D = MOD(7, 3)\n"
                "      END\n")
        assert list(common(r, "R")) == [4.0, 3.5, 7.0, 1.0]

    def test_division_by_zero(self):
        with pytest.raises(InterpreterError):
            run("      PROGRAM P\n"
                "      X = 1.0/0.0\n"
                "      END\n")


class TestProcedures:
    def test_by_reference_scalar(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X\n"
                "      X = 1.0\n"
                "      CALL BUMP(X)\n"
                "      END\n"
                "      SUBROUTINE BUMP(V)\n"
                "      V = V + 1.0\n"
                "      END\n")
        assert common(r, "R")[0] == 2.0

    def test_array_element_view_binding(self):
        # the Figure 2/3 mechanism: T(IX+1) passed as an array formal
        r = run("      PROGRAM P\n"
                "      COMMON /R/ T(20)\n"
                "      CALL FILL(T(6), 3)\n"
                "      END\n"
                "      SUBROUTINE FILL(X2, N)\n"
                "      DIMENSION X2(*)\n"
                "      DO 10 I = 1, N\n"
                "        X2(I) = I*1.0\n"
                "   10 CONTINUE\n"
                "      END\n")
        t = common(r, "R")
        assert list(t[5:8]) == [1.0, 2.0, 3.0]
        assert t[0] == 0.0

    def test_adjustable_dims(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ A(12)\n"
                "      CALL INIT(A, 3, 4)\n"
                "      END\n"
                "      SUBROUTINE INIT(M, L, N)\n"
                "      DIMENSION M(L, N)\n"
                "      DO 10 J = 1, N\n"
                "        DO 10 I = 1, L\n"
                "          M(I, J) = I + 10*J\n"
                "   10 CONTINUE\n"
                "      END\n")
        a = common(r, "R")
        assert a[0] == 11.0   # M(1,1)
        assert a[3] == 21.0   # M(1,2) column-major: 1 + 10*2
        assert a[11] == 43.0  # M(3,4)

    def test_sequence_association_common(self):
        # two units view the same common with different shapes
        r = run("      PROGRAM P\n"
                "      COMMON /C/ A(2,3)\n"
                "      A(2,1) = 9.0\n"
                "      CALL PEEK\n"
                "      END\n"
                "      SUBROUTINE PEEK\n"
                "      COMMON /C/ B(6)\n"
                "      COMMON /R/ OUT\n"
                "      OUT = B(2)\n"
                "      END\n")
        assert common(r, "R")[0] == 9.0

    def test_function_call(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X\n"
                "      X = SQ(3.0) + SQ(4.0)\n"
                "      END\n"
                "      REAL FUNCTION SQ(V)\n"
                "      SQ = V*V\n"
                "      END\n")
        assert common(r, "R")[0] == 25.0

    def test_early_return(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X\n"
                "      X = 0.0\n"
                "      CALL MAYBE(X, 1)\n"
                "      END\n"
                "      SUBROUTINE MAYBE(V, FLAG)\n"
                "      INTEGER FLAG\n"
                "      IF (FLAG.EQ.1) RETURN\n"
                "      V = 99.0\n"
                "      END\n")
        assert common(r, "R")[0] == 0.0

    def test_expression_actual_copy_in(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ X\n"
                "      CALL TAKE(2.0+3.0, X)\n"
                "      END\n"
                "      SUBROUTINE TAKE(A, OUT)\n"
                "      OUT = A\n"
                "      END\n")
        assert common(r, "R")[0] == 5.0

    def test_missing_procedure(self):
        with pytest.raises(InterpreterError):
            run("      PROGRAM P\n"
                "      CALL NOWHERE(1)\n"
                "      END\n")

    def test_recursion_works(self):
        r = run("      PROGRAM P\n"
                "      COMMON /R/ N\n"
                "      N = 5\n"
                "      CALL FACT(N)\n"
                "      END\n"
                "      SUBROUTINE FACT(N)\n"
                "      INTEGER N\n"
                "      IF (N.LE.1) THEN\n"
                "        N = 1\n"
                "      ELSE\n"
                "        M = N - 1\n"
                "        CALL FACT(M)\n"
                "        N = N*M\n"
                "      END IF\n"
                "      END\n")
        assert common(r, "R")[0] == 120.0

    def test_cost_accumulates(self):
        r1 = run("      PROGRAM P\n"
                 "      DO 10 I = 1, 10\n"
                 "        X = X + 1.0\n"
                 "   10 CONTINUE\n"
                 "      END\n")
        r2 = run("      PROGRAM P\n"
                 "      DO 10 I = 1, 1000\n"
                 "        X = X + 1.0\n"
                 "   10 CONTINUE\n"
                 "      END\n")
        assert r2.cost > r1.cost * 20


def _calls(n, name, *unit):
    """A main program calling ``name`` ``n`` times, then ``unit``."""
    return ("      PROGRAM P\n"
            + f"      CALL {name}\n" * n
            + "      END\n"
            + "".join(line + "\n" for line in unit))


@pytest.mark.parametrize("backend", ["tree", "compiled"])
class TestSavedLocals:
    """DATA targets, SAVE-listed names and every local under a bare SAVE
    keep their values between calls (F77 leaves them undefined, and
    every compiler keeps them); any other local reads 0.0 on entry."""

    def output(self, src, backend):
        return make_interpreter(Program.from_source(src), backend).run().output

    def test_data_and_save_list(self, backend):
        src = ("      PROGRAM P\n"
               "      CALL S\n      CALL S\n      CALL T\n      CALL T\n"
               "      END\n"
               "      SUBROUTINE S\n"
               "      INTEGER K\n"
               "      DATA K /0/\n"
               "      K = K + 1\n"
               "      PRINT *, K\n"
               "      END\n"
               "      SUBROUTINE T\n"
               "      SAVE M\n"
               "      M = M + 1\n"
               "      L = L + 1\n"
               "      PRINT *, M, L\n"
               "      END\n")
        assert self.output(src, backend) == ["1.0", "2.0", "1.0 1.0",
                                             "2.0 1.0"]

    def test_data_applies_once(self, backend):
        src = _calls(3, "S",
                     "      SUBROUTINE S",
                     "      DIMENSION W(3)",
                     "      DATA K /5/, W /3*1.0/",
                     "      K = K + 1",
                     "      W(2) = W(2) + K",
                     "      PRINT *, K, W(1), W(2)",
                     "      END")
        assert self.output(src, backend) == ["6.0 1.0 7.0", "7.0 1.0 14.0",
                                             "8.0 1.0 22.0"]

    def test_bare_save_keeps_every_local(self, backend):
        src = _calls(3, "U",
                     "      SUBROUTINE U",
                     "      SAVE",
                     "      DIMENSION V(2)",
                     "      N = N + 1",
                     "      V(2) = V(2) + 0.5",
                     "      PRINT *, N, V(2)",
                     "      END")
        assert self.output(src, backend) == ["1.0 0.5", "2.0 1.0", "3.0 1.5"]

    def test_saved_local_is_one_cell_under_recursion(self, backend):
        src = ("      PROGRAM P\n"
               "      CALL R(3)\n"
               "      END\n"
               "      SUBROUTINE R(N)\n"
               "      SAVE K\n"
               "      K = K + 1\n"
               "      IF (N.GT.1) CALL R(N-1)\n"
               "      PRINT *, K\n"
               "      END\n")
        assert self.output(src, backend) == ["3.0"] * 3

    def test_saved_function_result_still_required(self, backend):
        src = ("      PROGRAM P\n"
               "      X = F(1.0)\n"
               "      X = F(-1.0)\n"
               "      END\n"
               "      REAL FUNCTION F(A)\n"
               "      SAVE\n"
               "      IF (A.GT.0.0) F = A\n"
               "      END\n")
        with pytest.raises(InterpreterError, match="never set its result"):
            self.output(src, backend)
