"""End-to-end tests of the Polaris-like parallelizer on small programs.

Each test encodes one legality rule or one of the paper's scenarios.
"""

from repro.fortran import ast
from repro.polaris import Polaris, PolarisOptions
from repro.program import Program


def parallel_loops(body):
    """The directive loops of ``body``, in program order."""
    return (s for s in ast.walk_stmts(body)
            if isinstance(s, ast.OmpParallelDo))


def run(src, **opts):
    prog = Program.from_source(src)
    report = Polaris(PolarisOptions(**opts)).run(prog)
    return prog, report


def parallel_vars(prog):
    return [omp.loop.var for u in prog.units
            for omp in parallel_loops(u.body)]


class TestBasicLegality:
    def test_independent_loop_parallelized(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = A(I)*2.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == ["I"]
        assert report.parallel_count() == 1

    def test_carried_dependence_blocks(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 2, N\n"
            "        A(I) = A(I-1)*2.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == []
        assert report.verdicts[0].reason == "array-dep"

    def test_io_blocks(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = 0.0\n"
            "        WRITE(6,*) I\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == []
        assert report.verdicts[0].reason == "io"

    def test_stop_blocks(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        IF (A(I).LT.0.0) STOP 'BAD'\n"
            "        A(I) = 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == []
        assert report.verdicts[0].reason == "control-flow"

    def test_goto_blocks(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        IF (A(I).LT.0.0) GO TO 10\n"
            "        A(I) = 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == []

    def test_opaque_call_blocks(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        CALL FSMP(I, I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == []
        assert report.verdicts[0].reason == "call"
        assert report.verdicts[0].detail == "FSMP"

    def test_pure_function_call_ok(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = SQ(A(I))\n"
            "   10 CONTINUE\n"
            "      END\n"
            "      REAL FUNCTION SQ(X)\n"
            "      SQ = X*X\n"
            "      END\n")
        assert "I" in parallel_vars(prog)

    def test_impure_subroutine_call_blocks(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      COMMON /G/ TOTAL\n"
            "      DO 10 I = 1, N\n"
            "        CALL BUMP(A(I))\n"
            "   10 CONTINUE\n"
            "      END\n"
            "      SUBROUTINE BUMP(X)\n"
            "      COMMON /G/ TOTAL\n"
            "      TOTAL = TOTAL + X\n"
            "      END\n")
        assert parallel_vars(prog) == []


class TestScalars:
    def test_private_temporary(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        T = A(I)*2.0\n"
            "        A(I) = T + 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == ["I"]
        omp = next(parallel_loops(prog.units[0].body))
        assert "T" in omp.private

    def test_reduction_clause(self):
        prog, report = run(
            "      SUBROUTINE S(A, N, S1)\n"
            "      DIMENSION A(*)\n"
            "      S1 = 0.0\n"
            "      DO 10 I = 1, N\n"
            "        S1 = S1 + A(I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == ["I"]
        omp = next(parallel_loops(prog.units[0].body))
        assert omp.reductions == (("+", "S1"),)

    def test_carried_scalar_blocks(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = T\n"
            "        T = A(I) + 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == []
        assert report.verdicts[0].reason == "scalar-dep"

    def test_induction_variable_handled(self):
        # Figure 2's inner loop: I = I + 1 with X2(I) writes
        prog, report = run(
            "      SUBROUTINE PCINIT(X2, FX, NSP)\n"
            "      DIMENSION X2(*), FX(*)\n"
            "      I = 0\n"
            "      DO 200 J = 1, NSP\n"
            "        I = I + 1\n"
            "        X2(I) = FX(I)*2.0\n"
            "  200 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == ["J"]


class TestArrays:
    def test_array_privatization(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(100,64), T(64)\n"
            "      DO 10 I = 1, N\n"
            "        DO 20 J = 1, 64\n"
            "          T(J) = A(I,J)\n"
            "   20   CONTINUE\n"
            "        DO 30 J = 1, 64\n"
            "          A(I,J) = T(65-J)\n"
            "   30   CONTINUE\n"
            "   10 CONTINUE\n"
            "      END\n")
        vars_ = parallel_vars(prog)
        assert "I" in vars_
        omp = [o for u in prog.units for o in parallel_loops(u.body)
               if o.loop.var == "I"][0]
        assert "T" in omp.private

    def test_partial_temp_blocks(self):
        prog, report = run(
            "      SUBROUTINE S(A, N, M)\n"
            "      DIMENSION A(100,64), T(64)\n"
            "      DO 10 I = 1, N\n"
            "        DO 20 J = 1, M\n"
            "          T(J) = A(I,J)\n"
            "   20   CONTINUE\n"
            "        A(I,1) = T(64)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert all(v.reason == "array-dep" or v.parallelized is False
                   for v in report.verdicts if v.var == "I")
        assert "I" not in parallel_vars(prog)

    def test_subscripted_subscript_blocks(self):
        prog, report = run(
            "      SUBROUTINE S(A, IDX, N)\n"
            "      DIMENSION A(*), IDX(*)\n"
            "      DO 10 I = 1, N\n"
            "        A(IDX(I)) = 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == []

    def test_unique_style_subscript_parallel(self):
        prog, report = run(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        A(257*IBASE + I) = 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == ["I"]

    def test_different_columns_parallel(self):
        prog, report = run(
            "      SUBROUTINE S(FE, N)\n"
            "      DIMENSION FE(8,100)\n"
            "      DO 10 K = 1, N\n"
            "        DO 20 J = 1, 8\n"
            "          FE(J,K) = 0.0\n"
            "   20   CONTINUE\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert set(parallel_vars(prog)) == {"K", "J"}


class TestDriverBehaviour:
    def test_nested_parallelization(self):
        prog, report = run(
            "      SUBROUTINE S(A)\n"
            "      DIMENSION A(64,64)\n"
            "      DO 10 I = 1, 64\n"
            "        DO 20 J = 1, 64\n"
            "          A(J,I) = 0.0\n"
            "   20   CONTINUE\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert sum(1 for u in prog.units
                   for _ in parallel_loops(u.body)) == 2

    def test_unprofitable_small_trip(self):
        prog, report = run(
            "      SUBROUTINE S(A)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, 2\n"
            "        A(I) = 0.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert parallel_vars(prog) == []
        assert report.verdicts[0].reason == "unprofitable"

    def test_report_origins_stable_across_runs(self):
        src = ("      SUBROUTINE S(A, N)\n"
               "      DIMENSION A(*)\n"
               "      DO 10 I = 1, N\n"
               "        A(I) = 0.0\n"
               "   10 CONTINUE\n"
               "      END\n")
        _, r1 = run(src)
        _, r2 = run(src)
        assert r1.parallel_origins() == r2.parallel_origins()

    def test_figure2_caller_blocked_without_inlining(self):
        # caller loop invoking PCINIT is serial in the no-inlining config
        prog, report = run(
            "      PROGRAM MAIN\n"
            "      COMMON /BLK/ T(1000), IX(64)\n"
            "      DO 5 K = 1, 10\n"
            "        CALL PCINIT(T(IX(7)+1), 16)\n"
            "    5 CONTINUE\n"
            "      END\n"
            "      SUBROUTINE PCINIT(X2, NSP)\n"
            "      DIMENSION X2(*)\n"
            "      DO 200 J = 1, NSP\n"
            "        X2(J) = 2.0\n"
            "  200 CONTINUE\n"
            "      END\n")
        by_unit = {v.unit: v for v in report.verdicts}
        assert not by_unit["MAIN"].parallelized
        assert by_unit["MAIN"].reason == "call"
        assert by_unit["PCINIT"].parallelized
