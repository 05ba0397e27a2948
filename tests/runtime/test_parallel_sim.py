"""Tests of the simulated OpenMP execution: semantics (privatization,
reductions, lastprivate peeling, permuted validation) and the cost model."""

import pytest

from repro.program import Program
from repro.runtime import AMD_OPTERON, INTEL_MAC, Interpreter, diff_test
from repro.runtime.interpreter import ORDER_PERMUTED
from repro.runtime.machine import MachineModel, price
from repro.polaris import Polaris, PolarisOptions


def parallelize(src, **opts):
    prog = Program.from_source(src)
    Polaris(PolarisOptions(**opts)).run(prog)
    return prog


def priced(prog, machine):
    """Simulated cost of ``prog`` on ``machine``: its recorded region
    tree, priced."""
    return price(Interpreter(prog).run().regions, machine)[0]


BIG_LOOP = ("      PROGRAM P\n"
            "      COMMON /R/ A(10000)\n"
            "      DO 10 I = 1, 10000\n"
            "        A(I) = I*2.0 + 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")


class TestMachineModel:
    def test_parallel_time_scales(self):
        m = MachineModel("m", threads=4, fork_join_overhead=0.0,
                         per_thread_overhead=0.0)
        costs = [10.0] * 100
        assert m.parallel_time(costs) == pytest.approx(250.0)

    def test_overhead_dominates_small_loops(self):
        m = MachineModel("m", threads=4, fork_join_overhead=1000.0)
        assert m.parallel_time([1.0, 1.0]) > 1000.0

    def test_nested_runs_serial(self):
        m = MachineModel("m", threads=4, fork_join_overhead=100.0)
        costs = [10.0] * 8
        assert m.parallel_time(costs, nested=True) >= sum(costs)

    def test_machines_defined(self):
        assert INTEL_MAC.threads == 8
        assert AMD_OPTERON.threads == 4


class TestParallelSemantics:
    def test_simple_loop_matches_serial(self):
        prog = parallelize(BIG_LOOP)
        result = diff_test(prog)
        assert result.passed, result.explain()

    def test_speedup_on_big_loop(self):
        prog = parallelize(BIG_LOOP)
        serial = Interpreter(prog, honor_directives=False).run()
        par = priced(prog, INTEL_MAC)
        assert par < serial.cost
        speedup = serial.cost / par
        assert speedup > 2.0

    def test_overhead_hurts_small_loop(self):
        src = ("      PROGRAM P\n"
               "      COMMON /R/ A(8)\n"
               "      DO 10 K = 1, 200\n"
               "        DO 20 I = 1, 8\n"
               "          A(I) = A(I) + 1.0\n"
               "   20   CONTINUE\n"
               "   10 CONTINUE\n"
               "      END\n")
        prog = parallelize(src)
        serial = Interpreter(prog, honor_directives=False).run()
        # the inner loop is tiny: fork/join overhead slows the program
        assert priced(prog, INTEL_MAC) > serial.cost

    def test_private_scalar(self):
        src = ("      PROGRAM P\n"
               "      COMMON /R/ A(1000), B(1000)\n"
               "      DO 10 I = 1, 1000\n"
               "        T = I*2.0\n"
               "        A(I) = T\n"
               "        B(I) = T + 1.0\n"
               "   10 CONTINUE\n"
               "      END\n")
        prog = parallelize(src)
        result = diff_test(prog)
        assert result.passed, result.explain()

    def test_private_array_with_peeling(self):
        src = ("      PROGRAM P\n"
               "      COMMON /R/ A(100,16), T(16)\n"
               "      DO 10 I = 1, 100\n"
               "        DO 20 J = 1, 16\n"
               "          T(J) = I*1.0 + J\n"
               "   20   CONTINUE\n"
               "        DO 30 J = 1, 16\n"
               "          A(I,J) = T(17-J)\n"
               "   30   CONTINUE\n"
               "   10 CONTINUE\n"
               "      END\n")
        prog = parallelize(src)
        # T must be in a PRIVATE clause and survive diff testing,
        # including the lastprivate contract (T keeps iteration-100 values)
        result = diff_test(prog)
        assert result.passed, result.explain()

    def test_reduction(self):
        src = ("      PROGRAM P\n"
               "      COMMON /R/ S, A(5000)\n"
               "      DO 5 I = 1, 5000\n"
               "        A(I) = I*1.0\n"
               "    5 CONTINUE\n"
               "      S = 0.0\n"
               "      DO 10 I = 1, 5000\n"
               "        S = S + A(I)\n"
               "   10 CONTINUE\n"
               "      END\n")
        prog = parallelize(src)
        result = diff_test(prog)
        assert result.passed, result.explain()
        assert result.parallel.commons["R"][0] == 5000 * 5001 / 2

    def test_unsound_directive_caught(self):
        # hand-written WRONG directive: the loop carries a dependence
        src = ("      PROGRAM P\n"
               "      COMMON /R/ A(100)\n"
               "      A(1) = 1.0\n"
               "!$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(T)\n"
               "      DO 10 I = 2, 100\n"
               "        T = A(I-1)\n"
               "        A(I) = T + 1.0\n"
               "   10 CONTINUE\n"
               "!$OMP END PARALLEL DO\n"
               "      END\n")
        prog = Program.from_source(src)
        result = diff_test(prog)
        assert not result.passed
        assert "diverges" in result.explain()

    def test_unsound_privatization_caught(self):
        # PRIVATE on a variable that carries values across iterations
        src = ("      PROGRAM P\n"
               "      COMMON /R/ A(100)\n"
               "      T = 5.0\n"
               "!$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(T)\n"
               "      DO 10 I = 1, 100\n"
               "        A(I) = T\n"
               "        T = T + 1.0\n"
               "   10 CONTINUE\n"
               "!$OMP END PARALLEL DO\n"
               "      END\n")
        prog = Program.from_source(src)
        result = diff_test(prog)
        assert not result.passed

    def test_permuted_order_still_correct(self):
        prog = parallelize(BIG_LOOP)
        from repro.runtime.interpreter import Interpreter as I
        permuted = I(prog, iteration_order=ORDER_PERMUTED).run()
        serial = I(prog, honor_directives=False).run()
        assert serial.memory_equal(permuted)

    def test_fewer_threads_less_speedup(self):
        prog = parallelize(BIG_LOOP)
        serial = Interpreter(prog, honor_directives=False).run()
        par8 = priced(prog, INTEL_MAC)
        par4 = priced(prog, AMD_OPTERON)
        assert serial.cost / par8 > serial.cost / par4
