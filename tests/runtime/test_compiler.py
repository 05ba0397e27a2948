"""Compiled-backend tests: the closure compiler must be a bit-exact
stand-in for the tree-walker.

The heavy guarantees ride on :func:`backend_equivalence`, which runs a
program under both backends in all three execution modes and compares
output, cost, steps, stop/error messages, and COMMON contents
bit-for-bit.  This file applies it to every PERFECT benchmark under
every pipeline configuration, to the persisted fuzz corpus, and to
hand-written programs targeting the vectorizer's edge cases.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import InterpreterError
from repro.fortran import ast
from repro.perfect import all_benchmarks, get_benchmark
from repro.program import Program
from repro.runtime import compiler
from repro.runtime.compiler import CompiledInterpreter
from repro.runtime.interpreter import Interpreter
from repro.runtime.backend import (BACKEND_ENV, BACKENDS, default_backend,
                                   make_interpreter)
from repro.runtime.compiler import clear_compile_cache, compile_cache_info
from repro.runtime.difftest import backend_equivalence, diff_test
from repro.runtime.interpreter import (ORDER_PERMUTED, ORDER_SEQUENTIAL,
                                       collect_omp_sites, number_omp_sites,
                                       outputs_equal)
from repro.runtime.machine import AMD_OPTERON, INTEL_MAC, RegionProfile
from tests.runtime.test_region_pricing import (END, OMP, _nodes, _rebuilt,
                                              check, record, source)

CONFIGS = ("none", "conventional", "annotation")


def _pipeline(benchmark, config):
    """The oracle's exact pipeline on a fresh clone of ``benchmark``."""
    from repro.annotations import (AnnotationInliner, AnnotationRegistry,
                                   ReverseInliner)
    from repro.inlining import ConventionalInliner
    from repro.polaris import Polaris
    program = benchmark.program()
    registry = (AnnotationRegistry.from_text(benchmark.annotations)
                if benchmark.annotations.strip() else AnnotationRegistry())
    if config == "conventional":
        ConventionalInliner().run(program)
    elif config == "annotation":
        AnnotationInliner(registry).run(program)
    Polaris().run(program)
    if config == "annotation":
        ReverseInliner(registry).run(program)
    return program


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("bench", all_benchmarks(),
                         ids=[b.name for b in all_benchmarks()])
def test_benchmark_equivalence(bench, config):
    """12 benchmarks x 3 configs: both backends agree exactly in every
    execution mode (serial / parallel / permuted)."""
    program = _pipeline(bench, config)
    divergence = backend_equivalence(program, bench.inputs)
    assert divergence is None, divergence


def test_figure20_cells_identical(monkeypatch):
    """Figure 20 cells (tuning costs and verdicts) are byte-identical
    across backends — the compiled backend only changes wall-clock."""
    from repro.experiments.figure20 import (clear_pipeline_cache,
                                            figure20_cells)

    def cells_under(backend):
        monkeypatch.setenv(BACKEND_ENV, backend)
        # the cached profile is the other backend's execution
        clear_pipeline_cache()
        bench = get_benchmark("TRFD")
        return [(c.benchmark, c.machine, c.config,
                 c.tuning.initial_cost, c.tuning.tuned_cost,
                 c.tuning.serial_cost, tuple(c.tuning.disabled),
                 tuple(c.tuning.kept))
                for c in figure20_cells(bench)]

    try:
        assert cells_under("tree") == cells_under("compiled")
    finally:
        clear_pipeline_cache()


class TestBackendSwitch:
    def test_default_backend_is_compiled(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert default_backend() == "compiled"

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "tree")
        assert default_backend() == "tree"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "jit")
        with pytest.raises(ValueError, match="jit"):
            default_backend()

    def test_make_interpreter_classes(self, monkeypatch):
        prog = Program.from_source("      PROGRAM P\n      END\n")
        tree = make_interpreter(prog, "tree")
        assert type(tree) is Interpreter
        comp = make_interpreter(prog, "compiled")
        assert type(comp) is CompiledInterpreter
        monkeypatch.setenv(BACKEND_ENV, "tree")
        assert type(make_interpreter(prog)) is Interpreter

    def test_backends_tuple(self):
        assert BACKENDS == ("tree", "compiled")


class TestCompileCache:
    def test_templates_shared_across_interpreters(self):
        src = ("      PROGRAM P\n"
               "      COMMON /C/ A(10)\n"
               "      DO 10 I = 1, 10\n"
               "      A(I) = I\n"
               "   10 CONTINUE\n"
               "      END\n")
        prog = Program.from_source(src)
        clear_compile_cache()
        CompiledInterpreter(prog).run()
        after_first = compile_cache_info()
        assert after_first["misses"] >= 1
        CompiledInterpreter(prog).run()
        after_second = compile_cache_info()
        assert after_second["hits"] > after_first["hits"]
        assert after_second["misses"] == after_first["misses"]

    def test_omp_sites_preorder(self):
        bench = get_benchmark("TRFD")
        program = bench.program()
        for unit in program.units:
            sites = collect_omp_sites(unit.body)
            assert len(set(map(id, sites))) == len(sites)


class TestOutputsEqualSymmetry:
    """Regression: the tolerance used to scale by only one side's
    magnitude, so outputs_equal(a, b) could disagree with
    outputs_equal(b, a) near the threshold."""

    def test_symmetric_near_threshold(self):
        # |fa - fb| = 1e-4; old asymmetric form accepted exactly one
        # direction for rtol that brackets the two magnitudes
        a, b = ["100000.0"], ["99999.9999"]
        rtol = 1.0000000000000002e-09 * 1000  # between 1/fa and 1/fb scales
        assert outputs_equal(a, b, 1e-9) == outputs_equal(b, a, 1e-9)
        assert outputs_equal(a, b, rtol) == outputs_equal(b, a, rtol)

    def test_exhaustive_symmetry(self):
        values = ["0.0", "-0.0", "1.0", "1.000000001", "-1.0",
                  "1e308", "1e-308", "12345.6789", "12345.67891"]
        for x in values:
            for y in values:
                assert outputs_equal([x], [y]) == outputs_equal([y], [x]), \
                    (x, y)

    def test_text_tokens_still_exact(self):
        assert not outputs_equal(["abc"], ["abd"])
        assert outputs_equal(["abc 1.0"], ["abc 1.0000000001"])


def _equiv(src, inputs=None):
    prog = Program.from_sources({"main.f": src}, "test")
    divergence = backend_equivalence(prog, inputs)
    assert divergence is None, divergence


def _section_store(section):
    return ("      PROGRAM P\n"
            "      COMMON /D/ A(5)\n"
            f"      A({section}) = 3.0\n"
            "      WRITE(*,*) A(1), A(2), A(4), A(5)\n"
            "      END\n")


class TestArraySectionStores:
    """An array-section store runs the tree-walker's ``_store_region``
    on both backends (the compiled statement calls into it)."""

    def test_section_store(self):
        src = _section_store("2:4")
        _equiv(src)
        for backend in BACKENDS:
            result = make_interpreter(_program(src), backend).run()
            assert (result.output, result.cost) == (["0.0 3.0 3.0 0.0"], 7.5)

    def test_out_of_bounds_section_fails_alike(self):
        src = _section_store("4:6")
        _equiv(src)
        for backend in BACKENDS:
            with pytest.raises(InterpreterError,
                               match="subscript 6 out of bounds"):
                make_interpreter(_program(src), backend).run()


class TestVectorizerSemantics:
    """Programs aimed at the vectorizer's hazard analysis; every one
    must be bit-identical to the tree-walker whether the kernel fires,
    bails at runtime, or was rejected at compile time."""

    def test_simple_reduction(self):
        _equiv("      PROGRAM P\n"
               "      COMMON /OUT/ S\n"
               "      S = 0.1\n"
               "      DO 10 I = 1, 50\n"
               "      S = S + I * 0.3\n"
               "   10 CONTINUE\n"
               "      WRITE(*,*) S\n"
               "      END\n")

    def test_two_reductions_same_scalar(self):
        # the regression hypothesis found: a second write to a reduced
        # scalar invalidates the first accumulate's carry chain
        _equiv("      PROGRAM P\n"
               "      COMMON /OUT/ S\n"
               "      S = 0.0\n"
               "      DO 10 I = 1, 8\n"
               "      S = S + (I + I)\n"
               "      S = S + (I * I)\n"
               "   10 CONTINUE\n"
               "      WRITE(*,*) S\n"
               "      END\n")

    def test_integer_reduction_not_vectorized(self):
        # per-iteration INTEGER truncation feeds back into the carry
        _equiv("      PROGRAM P\n"
               "      INTEGER K\n"
               "      COMMON /OUT/ K\n"
               "      K = 0\n"
               "      DO 10 I = 1, 20\n"
               "      K = K + I / 3\n"
               "   10 CONTINUE\n"
               "      WRITE(*,*) K\n"
               "      END\n")

    def test_indirect_store_hazard(self):
        _equiv("      PROGRAM P\n"
               "      COMMON /OUT/ A(10), K(10)\n"
               "      DO 10 I = 1, 10\n"
               "      K(I) = 11 - I\n"
               "   10 CONTINUE\n"
               "      DO 20 I = 1, 10\n"
               "      A(K(I)) = I * 2.5\n"
               "   20 CONTINUE\n"
               "      WRITE(*,*) A(1), A(10)\n"
               "      END\n")

    def test_out_of_bounds_error_identical(self):
        # the kernel must bail and replay so the error message (and the
        # cost charged before it) matches the tree-walker exactly
        _equiv("      PROGRAM P\n"
               "      COMMON /OUT/ A(5)\n"
               "      DO 10 I = 1, 8\n"
               "      A(I) = I\n"
               "   10 CONTINUE\n"
               "      END\n")

    def test_division_by_zero_bails(self):
        _equiv("      PROGRAM P\n"
               "      COMMON /OUT/ A(8), B(8)\n"
               "      B(3) = 0.0\n"
               "      DO 10 I = 1, 8\n"
               "      A(I) = I / B(I)\n"
               "   10 CONTINUE\n"
               "      END\n")

    def test_loop_invariant_max_into_a_scalar(self):
        # np.where over two loop-invariant operands is a 0-d array: the
        # scalar store used to index it for a last element (IndexError)
        _equiv("      PROGRAM P\n"
               "      COMMON /OUT/ S, T\n"
               "      S = 1.5\n"
               "      DO 10 I = 1, 8\n"
               "      T = MAX(S, 0.5)\n"
               "   10 CONTINUE\n"
               "      WRITE(*,*) T\n"
               "      END\n")

    def test_loop_carried_scalar_not_reduction(self):
        # T is read before written with a non-reduction shape
        _equiv("      PROGRAM P\n"
               "      COMMON /OUT/ A(20), T\n"
               "      T = 1.0\n"
               "      DO 10 I = 1, 20\n"
               "      A(I) = T * I\n"
               "      T = A(I) + 0.5\n"
               "   10 CONTINUE\n"
               "      WRITE(*,*) T\n"
               "      END\n")


class TestAccumulateBitwise:
    """The reduction kernel leans on numpy's ufunc.accumulate being
    bitwise-identical to a sequential Python fold — pin that down."""

    VALUES = [1e16, 1.0, -1e16, 1e-3, 3.7, -2.5e7, 1e300, -1e300,
              0.1, -0.0, 7.25, 1e-300]

    @pytest.mark.parametrize("ufunc,op", [
        (np.add, lambda a, b: a + b),
        (np.subtract, lambda a, b: a - b),
        (np.multiply, lambda a, b: a * b),
    ])
    def test_matches_sequential_fold(self, ufunc, op):
        seed = 0.5
        arr = np.empty(len(self.VALUES) + 1, dtype=np.float64)
        arr[0] = seed
        arr[1:] = self.VALUES
        with np.errstate(all="ignore"):  # the kernel runs under errstate
            acc = ufunc.accumulate(arr)
        s = seed
        for i, v in enumerate(self.VALUES):
            s = op(s, v)
            a = float(acc[i + 1])
            assert (a == s and np.signbit(a) == np.signbit(np.float64(s))
                    ) or (np.isnan(a) and np.isnan(s)), (i, v, a, s)


    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("ufunc,op", [
        (np.add, lambda a, b: a + b),
        (np.subtract, lambda a, b: a - b),
        (np.multiply, lambda a, b: a * b),
    ])
    def test_rows_match_sequential_folds(self, ufunc, op, axis):
        """A row reduction is one accumulate along the inner loop's axis
        (axis 0 of a launch; either axis here, in either memory order):
        every lane is its own left-to-right fold from its own carry."""
        lanes = 5
        rows = np.array([[v * (lane + 1) + lane * 1e-3
                          for v in self.VALUES] for lane in range(lanes)])
        carries = np.array([0.5, -0.0, 1e16, -3.25, 1e-300])
        for order in ("C", "F"):
            arr = np.empty((lanes, len(self.VALUES) + 1), order=order)
            arr[:, 0] = carries
            arr[:, 1:] = rows
            if axis == 0:
                arr = np.array(arr.T, order=order)
            with np.errstate(all="ignore"):
                acc = ufunc.accumulate(arr, axis=axis)
                for lane in range(lanes):
                    s = float(carries[lane])
                    for i, v in enumerate(rows[lane]):
                        s = op(s, float(v))
                        a = float(acc[i + 1, lane] if axis == 0
                                  else acc[lane, i + 1])
                        assert (a == s and np.signbit(a) == np.signbit(
                            np.float64(s))) or (np.isnan(a) and np.isnan(s)), \
                            (order, lane, i, a, s)


@pytest.mark.parametrize("entry_idx", range(4))
def test_fuzz_corpus_replay_compiled(entry_idx, monkeypatch):
    """Every persisted corpus entry also passes the oracle when the
    process default backend is the compiled one."""
    from repro.fuzz.corpus import load_corpus
    corpus_dir = os.path.join(os.path.dirname(__file__), "..", "fuzz",
                              "corpus")
    entries = load_corpus(corpus_dir)
    if entry_idx >= len(entries):
        pytest.skip("fewer corpus entries than parametrized slots")
    monkeypatch.setenv(BACKEND_ENV, "compiled")
    result = entries[entry_idx].replay()
    assert result.passed, result.describe()


# ---------------------------------------------------------------------------
# honoured directives on the vector kernel
# ---------------------------------------------------------------------------

def omp(*clauses):
    return " ".join((OMP,) + clauses)


#: A(I) = I*0.5 for I = 1..12: a directive-free kernel loop committing
#: 2 statements x 12 trips = 24 steps in every execution mode
FILL_A = ("      DO 5 I = 1, 12",
          "        A(I) = I*0.5",
          "    5 CONTINUE")
FILL_STEPS = 24


def _program(src):
    return Program.from_sources({"main.f": src}, "test")


def _compiled(src, **kwargs):
    """The compiled interpreter after running ``src`` (directives
    honoured), and the error it raised, if any."""
    interp = CompiledInterpreter(_program(src), **kwargs)
    try:
        interp.run()
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        return interp, f"{type(exc).__name__}: {exc}"
    return interp, None


def _kernel_steps(src, **kwargs):
    return _compiled(src, **kwargs)[0].kernel_steps


PRIVATE_TEMPORARY = source(
    "      PROGRAM P",
    "      COMMON /D/ A(12), B(12), T",
    *FILL_A,
    "      T = -1.0",
    omp("PRIVATE(I,T)"),
    "      DO 10 I = 1, 12",
    "        T = A(I)*2",
    "        B(I) = T",
    "   10 CONTINUE",
    END,
    "      WRITE(*,*) T, I",
    "      END")

#: MDG's loop 44: a per-iteration outer region (its private row buffer
#: is an array) around an inner directive loop and a plain loop, both
#: kernels
ROW_BUFFER_NEST = source(
    "      PROGRAM P",
    "      COMMON /D/ A(6, 8), B(6, 8)",
    "      DIMENSION ROW(8)",
    omp("PRIVATE(I,J,ROW)"),
    "      DO 30 I = 1, 6",
    omp("PRIVATE(J)"),
    "        DO 10 J = 1, 8",
    "          ROW(J) = I + J*0.25",
    "   10   CONTINUE",
    END,
    "        DO 20 J = 1, 8",
    "          B(I, J) = ROW(J)*2",
    "   20   CONTINUE",
    "   30 CONTINUE",
    END,
    "      END")


class TestDirectiveKernel:
    """A loop under an honoured directive runs on the vector kernel when
    the schedule is program order and privatisation cannot be observed;
    every case goes through all three modes on both backends, regions
    included, and says whether the kernel is expected to have run."""

    def test_private_scalar_temporary(self):
        _equiv(PRIVATE_TEMPORARY)
        interp, _ = _compiled(PRIVATE_TEMPORARY)
        assert interp.kernel_steps == FILL_STEPS + 3 * 12
        # live out: the last iteration's value, and the DO variable
        assert interp.output == ["12.0 13.0"]

    @pytest.mark.parametrize("directive,body,kernel", [
        # read, never written: iterations but the last see zero
        ("PRIVATE(T)", ("B(I) = A(I) + T",), 0),
        # read before it is written
        ("PRIVATE(T)", ("B(I) = T", "T = A(I)"), 0),
        # an array: zeroed per iteration, only W(12) survives the peel —
        # which the kernel's lane copies model: it takes the loop
        ("PRIVATE(W)", ("W(I) = A(I)*2", "B(I) = W(I)"), 3 * 12),
        # a reduction: the privatised sum restarts every iteration
        ("PRIVATE(T)", ("T = T + A(I)",), 0),
    ], ids=["read-only", "read-before-write", "array", "reduction"])
    def test_observable_privatisation_runs_per_iteration(self, directive,
                                                         body, kernel):
        src = source(
            "      PROGRAM P",
            "      COMMON /D/ A(12), B(12), W(12), T",
            *FILL_A,
            "      T = 5.0",
            "      W(3) = -3.0",
            omp(directive),
            "      DO 10 I = 1, 12",
            *("        " + stmt for stmt in body),
            "   10 CONTINUE",
            END,
            "      WRITE(*,*) T, B(1), B(12), W(3), W(12)",
            "      END")
        _equiv(src)
        assert _kernel_steps(src) == FILL_STEPS + kernel
        # the directive is wrong, and only privatisation shows it:
        # honouring it must not compute what ignoring it does
        assert not diff_test(_program(src), backend="compiled").passed

    def test_unmentioned_private_overlaying_a_read_cell(self):
        # U is Y's cell (a COMMON variable passed by reference); the
        # body never names U, yet zeroing it changes what Y reads
        src = source(
            "      PROGRAM P",
            "      COMMON /D/ A(12), B(12), Y",
            *FILL_A,
            "      Y = 5.0",
            "      CALL SUB(Y)",
            "      WRITE(*,*) B(1), B(12)",
            "      END",
            "      SUBROUTINE SUB(U)",
            "      COMMON /D/ A(12), B(12), Y",
            omp("PRIVATE(U)"),
            "      DO 10 I = 1, 12",
            "        B(I) = A(I) + Y",
            "   10 CONTINUE",
            END,
            "      END")
        _equiv(src)
        interp, _ = _compiled(src)
        assert interp.kernel_steps == FILL_STEPS
        assert interp.output == ["0.5 11.0"]

    @pytest.mark.parametrize("decl,steps", [
        ("      REAL S", FILL_STEPS + 2 * 12),
        # per-iteration INTEGER truncation feeds the carry: the kernel
        # refuses at run time, having changed nothing
        ("      INTEGER S", FILL_STEPS),
    ], ids=["real", "integer"])
    def test_reduction_clause_on_a_shared_accumulator(self, decl, steps):
        src = source(
            "      PROGRAM P",
            decl,
            "      COMMON /D/ A(12), S",
            *FILL_A,
            "      S = 3",
            omp("PRIVATE(I)", "REDUCTION(+:S)"),
            "      DO 10 I = 1, 12",
            "        S = S + A(I)",
            "   10 CONTINUE",
            END,
            "      WRITE(*,*) S",
            "      END")
        _equiv(src)
        assert _kernel_steps(src) == steps

    def test_non_finite_integer_store_bails(self):
        src = source(
            "      PROGRAM P",
            "      INTEGER K",
            "      COMMON /D/ A(12), K(12)",
            *FILL_A,
            "      A(7) = 1.0D300*1.0D300",
            omp("PRIVATE(I)"),
            "      DO 10 I = 1, 12",
            "        K(I) = A(I)*4",
            "   10 CONTINUE",
            END,
            "      END")
        _equiv(src)
        interp, error = _compiled(src)
        assert error.startswith("OverflowError")
        assert interp.kernel_steps == FILL_STEPS
        assert interp.commons["D"][12:24].tolist() == \
            [2.0, 4.0, 6.0, 8.0, 10.0, 12.0] + [0.0] * 6

    def test_recurrence_under_a_wrong_directive(self):
        # in program order the loop still computes the serial answer;
        # the permuted schedule must keep exposing it, on the compiled
        # backend exactly as on the tree (the kernel's own alias check
        # refuses it, and permuted runs never ask)
        src = source(
            "      PROGRAM P",
            "      COMMON /D/ A(12)",
            "      A(1) = 1.0",
            omp("PRIVATE(I)"),
            "      DO 10 I = 2, 12",
            "        A(I) = A(I-1) + 1",
            "   10 CONTINUE",
            END,
            "      END")
        _equiv(src)
        for backend in BACKENDS:
            result = diff_test(_program(src), backend=backend)
            assert result.serial.memory_equal(result.parallel)
            assert not result.serial.memory_equal(result.permuted)
        assert _kernel_steps(src) == 0

    def test_kernel_inside_a_per_iteration_region(self):
        _equiv(ROW_BUFFER_NEST)
        interp, _ = _compiled(ROW_BUFFER_NEST)
        # the private row buffer has a copy per lane: one launch takes
        # the whole nest, its two loop headers and CONTINUE included
        assert interp.kernel_steps == 6 * (2 * 8 + 2 * 8 + 3)
        assert interp.kernel_launches == 1
        outer, = interp._result(None).regions.roots
        assert len(outer.costs) == 6
        assert [pos for pos, _kid in outer.children] == list(range(6))
        for _pos, kid in outer.children:
            assert list(kid.costs) == [kid.costs[0]] * 8
            assert kid.children == ()

    @pytest.mark.parametrize("header,trips", [
        ("1, 0", 0), ("1, 3", 3), ("1, 4", 4),
        ("12, 2, -3", 4), ("2, 11, 2", 5), ("12, 1, -1", 12),
    ])
    def test_trip_counts_and_steps(self, header, trips):
        src = source(
            "      PROGRAM P",
            "      COMMON /D/ A(12), B(12)",
            *FILL_A,
            omp("PRIVATE(I,T)"),
            f"      DO 10 I = {header}",
            "        T = A(I) + I",
            "        B(I) = T*T",
            "   10 CONTINUE",
            END,
            "      WRITE(*,*) I, T",
            "      END")
        _equiv(src)
        kernel = 3 * trips if trips >= 4 else 0
        assert _kernel_steps(src) == FILL_STEPS + kernel

    @pytest.mark.parametrize("stop", [0, 8])
    def test_array_do_variable_fails_like_the_tree(self, stop):
        src = source(
            "      PROGRAM P",
            "      COMMON /D/ A(12)",
            "      DIMENSION I(3)",
            omp(),
            f"      DO 10 I = 1, {stop}",
            "        A(2) = 1.0",
            "   10 CONTINUE",
            END,
            "      END")
        _equiv(src)
        assert _compiled(src)[1] is not None

    @pytest.mark.parametrize("max_steps", [27, 29, 40, 46, 47, 62])
    def test_step_limit_inside_the_loop(self, max_steps):
        """The directive is step 27 and its loop runs 3 x 12 more, so the
        limit falls inside it: the kernel refuses, having charged and
        stored nothing, and the per-iteration path raises at the
        tree-walker's statement."""
        program = _program(PRIVATE_TEMPORARY)
        seen = []
        for cls in (Interpreter, CompiledInterpreter):
            interp = cls(program, max_steps=max_steps)
            with pytest.raises(Exception) as caught:
                interp.run()
            seen.append((str(caught.value), interp.steps,
                         interp.commons["D"].tobytes(), interp.cost))
        assert seen[0][:3] == seen[1][:3]
        assert seen[0][:2] == ("execution step limit exceeded",
                               max_steps + 1)
        if (max_steps + 1 - 27) % 3 == 0:
            # the raising statement is the CONTINUE: no expression whose
            # charge the compiled statement folds in ahead of the check
            assert seen[0][3] == seen[1][3]

    @pytest.mark.parametrize("src", [PRIVATE_TEMPORARY, ROW_BUFFER_NEST],
                             ids=["temporary", "nest"])
    def test_in_run_pricing_equals_the_pricer(self, src):
        program = _program(src)

        def cases(profile):
            for machine in (INTEL_MAC, AMD_OPTERON):
                yield machine, frozenset()
                yield machine, frozenset({("P", 0)})

        assert check(program, cases) == make_interpreter(
            program, "tree").run().regions

    def test_permuted_runs_keep_directive_loops_off_the_kernel(self):
        """The permuted schedule is the oracle for wrongly parallel
        loops, so it must execute every directive loop iteration by
        iteration, and no nest containing one may launch: only the
        directive-free loops commit kernels."""
        def permuted(src):
            interp, _ = _compiled(src, iteration_order=ORDER_PERMUTED)
            return interp.kernel_steps, interp.kernel_launches

        assert permuted(PRIVATE_TEMPORARY) == (FILL_STEPS, 1)
        # the inner plain loop (2 x 8, six times), not the inner directive
        assert permuted(ROW_BUFFER_NEST) == (6 * 2 * 8, 6)
        from repro.experiments.pipeline import Config, run_config
        for name in ("ADM", "SPEC77"):
            bench = get_benchmark(name)
            program = run_config(bench, Config("annotation")).program

            def kernels(**kwargs):
                interp = CompiledInterpreter(program, **kwargs,
                                             inputs=list(bench.inputs))
                interp.run()
                return interp.kernel_steps, interp.kernel_launches

            # every loop of these two the vectoriser accepts is a
            # directive's or has one inside, so the permuted run launches
            # nothing.  (Ignoring the directives is no upper bound on
            # honouring them: PRIVATE(I) binds I before the launch, and
            # no launch creates a frame local)
            assert kernels(iteration_order=ORDER_PERMUTED) == (0, 0)
            assert kernels(iteration_order=ORDER_SEQUENTIAL)[0] > 0


# ---------------------------------------------------------------------------
# operands admitted by invariance
# ---------------------------------------------------------------------------

def _both(src, **kwargs):
    """(error, steps, cost, COMMON bytes) of a serial run of ``src`` under
    the tree-walker and under the compiled backend."""
    seen = []
    for cls in (Interpreter, CompiledInterpreter):
        interp = cls(_program(src), honor_directives=False, **kwargs)
        try:
            interp.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - errors are part of the contract
            error = f"{type(exc).__name__}: {exc}"
        seen.append((error, interp.steps, interp.cost,
                     {name: buf.tobytes()
                      for name, buf in interp.commons.items()}))
    return seen


def _loop(*body, decls=(), setup=(), header="1, 12", directive=None,
          after=("      WRITE(*,*) B(1), B(12), I",)):
    """A program around one candidate loop over A (filled by a kernel
    loop of FILL_STEPS steps), B, the INTEGER K and the scalars S, T."""
    return source(
        "      PROGRAM P",
        "      INTEGER K",
        *decls,
        "      COMMON /D/ A(12), B(12), K(12), S, T",
        *FILL_A,
        "      K(2) = 4",
        "      K(3) = 7",
        "      K(4) = 3",
        "      S = 1.5",
        "      T = 3.0",
        *setup,
        *([directive] if directive else []),
        f"      DO 10 I = {header}",
        *("        " + stmt for stmt in body),
        "   10 CONTINUE",
        *([END] if directive else []),
        *after,
        "      END")


#: BDNA's PCINIT (the paper's Figure 2/3) as the pipeline emits it
_PCINIT_DATA = (
    "      COMMON /POOL/ T(600), IX(16)",
    "      COMMON /FRC/ FX(100)",
    "      COMMON /STATE/ TSTEP",
    "      TSTEP = 0.001",
    "      IX(7) = 100",
    "      DO 5 I = 1, 100",
    "        FX(I) = I*0.01",
    "    5 CONTINUE")
_PCINIT_UNIT = (
    "      SUBROUTINE PCINIT(X2, NSP)",
    "      DIMENSION X2(*)",
    "      COMMON /FRC/ FX(100)",
    "      COMMON /STATE/ TSTEP",
    "      I = 0",
    OMP,
    "      DO 200 J = 1, NSP",
    "        X2(0+(J-1+1)) = FX(0+(J-1+1))*TSTEP**2/2.0",
    "  200 CONTINUE",
    END,
    "      IF (NSP.GE.1) I = 0+(NSP-1+1)",
    "      END")
_PCINIT_CALLS = (
    "      DO 30 KS = 1, 3",
    "        CALL PCINIT(T(IX(7)+1), 90)",
    "   30 CONTINUE")
_PCINIT_OUT = ("      WRITE(*,*) T(IX(7)+1), T(IX(7)+90), T(IX(7)+91)",
               "      END")
PCINIT_FORMS = {
    # `none`: the callee's loop, induction variable substituted
    "callee": source("      PROGRAM P", *_PCINIT_DATA, *_PCINIT_CALLS,
                     *_PCINIT_OUT, *_PCINIT_UNIT),
    # `conventional`: inlined, the subscripted subscript, T private
    "inlined": source(
        "      PROGRAM P", *_PCINIT_DATA,
        omp("PRIVATE(I$I1,J$I1,T)"),
        "      DO 30 KS = 1, 3",
        "        I$I1 = 0",
        "        DO J$I1 = 1, 90",
        "          T(IX(7)+1+(0+(J$I1-1+1)-1)) = FX(0+(J$I1-1+1))*TSTEP**2/2.0",
        " 2001   CONTINUE",
        "        END DO",
        "        IF (90.GE.1) I$I1 = 0+(90-1+1)",
        "   30 CONTINUE",
        END, *_PCINIT_OUT),
    # `annotation`: the call kept, its loop's directive inside PRIVATE(T)
    "annotated": source("      PROGRAM P", *_PCINIT_DATA, omp("PRIVATE(T)"),
                        *_PCINIT_CALLS, END, *_PCINIT_OUT, *_PCINIT_UNIT),
}


def _under_another_name(call, layout, read, header="1, 12"):
    """F stores ``X(I)`` and hoists ``read``; whether the two share
    storage is known only at launch, to the overlap check."""
    return source(
        "      PROGRAM P",
        "      COMMON /D/ A(12), B(12)",
        *FILL_A,
        "      B(3) = 2.0",
        "      B(5) = -1.0",
        f"      CALL F({call})",
        "      WRITE(*,*) A(2), A(12), B(1), B(3), B(12)",
        "      END",
        f"      SUBROUTINE F({'X, Z' if ',' in call else 'X'})",
        "      DIMENSION X(*), Z(1)",
        f"      COMMON /D/ {layout}",
        f"      DO 10 I = {header}",
        f"        X(I) = {read}*2 + I",
        "   10 CONTINUE",
        "      END")


#: loops that change what they would hoist: every launch must refuse
CHANGED_INVARIANTS = {
    "own-array": _loop("A(I) = A(1)*2.0"),
    "stored-index": _loop("K(3) = I", "A(I) = B(K(3))"),
    "swept-index": _loop("B(I) = A(K(3))", "K(I) = 2"),
    # B(3) is the callee's Y3, and the store through X sweeps it
    "overlay": _under_another_name("B", "A(12), Y1, Y2, Y3", "Y3"),
    # X(*) over A(2:) runs past A into its COMMON neighbour — first, so
    # that the eleven iterations after it read what it stored
    "neighbour": _under_another_name("A(2)", "A(12), Y", "Y", "12, 1, -1"),
    # the element actual lies inside the array actual
    "argument": _under_another_name("A, A(5)", "Q(24)", "Z(1)"),
}

#: a scalar the body assigns is not invariant: refused when lowered, and
#: ``T`` is forwarded from the statement that wrote it
ASSIGNED_SCALARS = {
    "power": (_loop("A(I) = 2.0**S", "S = A(I)"), FILL_STEPS),
    "temporary": (_loop("T = A(I)*2", "B(I) = T + S**2"),
                  FILL_STEPS + 3 * 12),
}


class TestInvariantOperands:
    """The vectoriser admits an operand that mentions neither the DO
    variable nor a scalar the body assigns and evaluates it once per
    launch with the scalar path's own closure.  Each program says what
    the kernel is expected to have done, and goes through all three
    modes on both backends."""

    @pytest.mark.parametrize("form", sorted(PCINIT_FORMS))
    def test_pcinit_takes_the_kernel(self, form):
        src = PCINIT_FORMS[form]
        _equiv(src)
        interp, error = _compiled(src)
        assert error is None
        # FX's fill, then three launches of the two-statement loop
        assert interp.kernel_steps == 2 * 100 + 3 * 2 * 90
        assert (interp.kernel_launches, interp.kernel_bails) == (4, 0)
        assert interp.output == ["5e-09 4.5e-07 0.0"]

    @pytest.mark.parametrize("name", sorted(CHANGED_INVARIANTS))
    def test_an_invariant_the_loop_changes_is_refused(self, name):
        src = CHANGED_INVARIANTS[name]
        _equiv(src)
        assert _kernel_steps(src) == FILL_STEPS

    @pytest.mark.parametrize("call,layout,read", [
        ("B", "Y1, Y2, Y3", "Y3"), ("A, B(5)", "Q(24)", "Z(1)"),
    ], ids=["overlay", "argument"])
    def test_an_invariant_in_storage_of_its_own_commits(self, call, layout,
                                                        read):
        src = _under_another_name(call, layout, read)
        _equiv(src)
        assert _kernel_steps(src) == FILL_STEPS + 2 * 12

    @pytest.mark.parametrize("name", sorted(ASSIGNED_SCALARS))
    def test_a_scalar_the_body_assigns_is_not_invariant(self, name):
        src, steps = ASSIGNED_SCALARS[name]
        _equiv(src)
        interp, _ = _compiled(src)
        # decided when the loop is lowered: nothing is built to refuse
        assert (interp.kernel_steps, interp.kernel_bails) == (steps, 0)

    @pytest.mark.parametrize("stmt", [
        "B(I) = A(I)*(K(3)/2) + MOD(K(3), 4)",
        "B(I + K(3)/2 - MOD(K(3), 4)) = A(I)",
        "B(I) = A(K(2)) + A(K(K(2)) - 1)",
        "B(I) = SIGN(S, -T)**2 + INT(T/2)",
        "B(I + INT(S)) = A(I)",
    ], ids=["value", "subscript", "element", "intrinsics", "int-subscript"])
    def test_invariant_integer_arithmetic(self, stmt):
        src = _loop(stmt, header="1, 11")
        _equiv(src)
        assert _kernel_steps(src) == FILL_STEPS + 2 * 11

    def test_real_valued_invariant_in_a_subscript(self):
        # T/2 = 1.5: int() would truncate every iteration — refused at
        # launch; with T = 4.0 the same loop commits
        src = _loop("B(I + T/2 - 1) = A(I)", header="1, 11")
        _equiv(src)
        assert _kernel_steps(src) == FILL_STEPS
        src = _loop("B(I + T/2 - 1) = A(I)", header="1, 11",
                    setup=("      T = 4.0",))
        _equiv(src)
        assert _kernel_steps(src) == FILL_STEPS + 2 * 11

    @pytest.mark.parametrize("stmt,error", [
        ("B(I) = A(I) + A(K(3) + 6)", "out of bounds"),
        ("B(I) = A(I)*(K(3)/K(5))", "division by zero"),
        ("B(I) = A(I) + MOD(K(3), K(5))", "MOD"),
        ("B(I) = A(I) + (S - T)**0.5", "negative base with real exponent"),
        ("B(I) = A(I)*K(5)**(-1)", "zero raised to a negative power"),
        ("B(I) = A(I)*10.0**400", "result of ** out of range"),
    ])
    def test_a_failing_invariant_fails_like_the_tree(self, stmt, error):
        """The launch refuses, having stored nothing; the replay raises
        at the tree-walker's statement, in the tree-walker's state."""
        src = _loop(stmt)
        _equiv(src)
        tree, compiled = _both(src)
        assert error in tree[0] and tree[0].startswith("InterpreterError")
        # cost apart: a compiled statement charges its whole strict
        # expression before evaluating it, the tree-walker node by node
        assert tree[:2] + tree[3:] == compiled[:2] + compiled[3:]
        assert _kernel_steps(src) == FILL_STEPS

    def test_an_undeclared_local_inside_an_invariant(self):
        # ZZ is first touched by the loop: a launch must not be what
        # creates it (the refusal leaves the replay to do so)
        src = _loop("B(I) = A(I) + ZZ**2 + QQ(2)",
                    decls=("      DIMENSION QQ(4)",))
        _equiv(src)
        assert _kernel_steps(src) == FILL_STEPS
        # touched beforehand, the same loop commits
        src = _loop("B(I) = A(I) + ZZ**2 + QQ(2)",
                    decls=("      DIMENSION QQ(4)",),
                    setup=("      ZZ = 2.0", "      QQ(2) = 1.0"))
        _equiv(src)
        assert _kernel_steps(src) == FILL_STEPS + 2 * 12

    def test_launches_and_bails_are_counted(self):
        # the fill commits; the recurrence is built, called and refused
        interp, _ = _compiled(_loop("B(I) = B(K(3)) + A(I)"))
        assert (interp.kernel_launches, interp.kernel_bails) == (1, 1)
        assert interp.kernel_steps == FILL_STEPS


class TestPowerFaults:
    """Every domain fault of ``**`` is an InterpreterError — it used to
    leave either backend as a raw ZeroDivisionError, OverflowError or
    ValueError — with one message, at one place, on both."""

    FAULTS = [("Z**N", "zero raised to a negative power"),
              ("Z**(-0.5)", "zero raised to a negative power"),
              ("10.0**400", "result of ** out of range"),
              ("(-2.0)**1001.0 * 2.0**HUGE", "result of ** out of range"),
              ("2.0**XINF", "exponent is not finite"),
              ("2.0**(XINF - XINF)", "exponent is not finite"),
              ("(Z - 2.0)**0.5", "negative base with real exponent")]

    @pytest.mark.parametrize("where", ["statement", "loop", "directive"])
    @pytest.mark.parametrize("expr,error", FAULTS)
    def test_one_interpreter_error_on_both_backends(self, expr, error,
                                                    where):
        body = {"statement": (f"      S = {expr}",),
                "loop": ("      DO 10 I = 1, 12",
                         f"        B(I) = A(I) + {expr}",
                         "   10 CONTINUE"),
                "directive": (omp("PRIVATE(I)"),
                              "      DO 10 I = 1, 12",
                              f"        B(I) = A(I) + {expr}",
                              "   10 CONTINUE",
                              END)}[where]
        src = source(
            "      PROGRAM P",
            "      INTEGER N",
            "      COMMON /D/ A(12), B(12), S, Z, XINF, HUGE, N",
            *FILL_A,
            "      N = -1",
            "      XINF = 1.0D300*1.0D300",
            "      HUGE = 1.0D300",
            *body,
            "      WRITE(*,*) S, B(1)",
            "      END")
        _equiv(src)
        tree, compiled = _both(src)
        assert tree[0] == f"InterpreterError: {error}"
        if where == "statement":
            # the fault is the last node the statement evaluates: the
            # backends agree on cost as well as on steps and memory
            assert tree == compiled
        else:
            assert tree[:2] + tree[3:] == compiled[:2] + compiled[3:]
            assert _kernel_steps(src) == FILL_STEPS


# ---------------------------------------------------------------------------
# mutants of the invariance rule (the pattern of tests/fuzz/test_mutation.py:
# patch one decision, assert on the oracle's verdict)
# ---------------------------------------------------------------------------

def _accepting_assigned_scalars():
    """Mutant: the invariance test stops banning what the body assigns."""
    real = compiler._vec_once

    def mutant(e, scope, cc, vst, banned):
        return real(e, scope, cc, vst, banned - vst["scalar_targets"])
    return mock.patch.object(compiler, "_vec_once", mutant)


def _dropping_hoisted_reads():
    """Mutant: what a launch hoists never reaches the overlap check."""
    class Reads(list):
        def append(self, read):
            if read[3] is not None:
                super().append(read)

    class Ctx(compiler._KernelCtx):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            self.reads = Reads()
    return mock.patch.object(compiler, "_KernelCtx", Ctx)


@pytest.fixture
def fresh_templates():
    """Templates are cached process-wide: a mutant must neither meet a
    sound one nor leave its own behind."""
    clear_compile_cache()
    yield
    clear_compile_cache()


@pytest.mark.usefixtures("fresh_templates")
class TestInvarianceMutants:
    @pytest.mark.parametrize("name", ["own-array", "swept-index", "overlay",
                                      "neighbour", "argument"])
    def test_dropped_reads_diverge(self, name):
        src = CHANGED_INVARIANTS[name]
        with _dropping_hoisted_reads():
            divergence = backend_equivalence(_program(src))
        assert divergence is not None and "serial" in divergence

    def test_an_accepted_assigned_scalar_is_still_refused_at_launch(self):
        """This mutant cannot reach the output: the scalar it hoists is a
        cell the body writes, so the overlap check refuses every launch.
        The static test decides *eligibility* — it is what sends ``T`` to
        its forwarded temporary — and the mutant dies on the counts."""
        src, steps = ASSIGNED_SCALARS["temporary"]
        with _accepting_assigned_scalars():
            assert backend_equivalence(_program(src)) is None
            interp, _ = _compiled(src)
        assert steps == FILL_STEPS + 3 * 12
        assert (interp.kernel_steps, interp.kernel_bails) == (FILL_STEPS, 1)

    @pytest.mark.parametrize("name", sorted(ASSIGNED_SCALARS))
    def test_both_mutants_together_diverge(self, name):
        # ... so the two are independent layers, and with the second one
        # down the programs above do tell an assigned scalar from an
        # invariant
        src, _steps = ASSIGNED_SCALARS[name]
        with _accepting_assigned_scalars(), _dropping_hoisted_reads():
            divergence = backend_equivalence(_program(src))
        assert divergence is not None

    def test_no_mutant_no_divergence(self):
        for src in list(CHANGED_INVARIANTS.values()) \
                + [src for src, _ in ASSIGNED_SCALARS.values()]:
            _equiv(src)


# ---------------------------------------------------------------------------
# loop nests on one N-dimensional launch
# ---------------------------------------------------------------------------

_NEST_HEAD = ("      PROGRAM P",
              "      INTEGER K",
              "      COMMON /D/ X(6, 8), Y(6, 8), A(20), B(20), K(20), S, T")
#: binds I and J (no launch creates a frame local), then fills X on one
#: two-axis launch and A and K — a varying INTEGER division with
#: negative quotients — on another
_NEST_FILL = ("      I = 0",
              "      J = 0",
              "      DO 3 J = 1, 8",
              "        DO 2 I = 1, 6",
              "          X(I, J) = I + J*0.25",
              "    2   CONTINUE",
              "    3 CONTINUE",
              "      DO 4 I = 1, 20",
              "        A(I) = I*0.5",
              "        K(I) = (I - 9)/3",
              "    4 CONTINUE",
              "      S = 1.5",
              "      T = 3.0")
NEST_FILL_STEPS = 8 * (2 + 6 * 2) + 20 * 3


def NEST_STEPS(n):
    """DO 20 J = 1, 8 / DO 10 I = 1, 6 around a body of ``n`` statements."""
    return 8 * (2 + 6 * (n + 1))


def _nest(*lines, decls=(), after=("      WRITE(*,*) S, T, I, J",)):
    return source(*_NEST_HEAD, *decls, *_NEST_FILL, *lines, *after,
                  "      END")


def _rect(*body, before=(), between=(), closing=(), outer=None, inner=None,
          inner_header="1, 6", **kwargs):
    """``DO 20 J = 1, 8`` around ``between``, ``DO 10 I`` around ``body``,
    and ``closing``."""
    return _nest(
        *before,
        *([omp(*outer)] if outer is not None else []),
        "      DO 20 J = 1, 8",
        *("        " + stmt for stmt in between),
        *([omp(*inner)] if inner is not None else []),
        f"        DO 10 I = {inner_header}",
        *("          " + stmt for stmt in body),
        "   10   CONTINUE",
        *([END] if inner is not None else []),
        *("        " + stmt for stmt in closing),
        "   20 CONTINUE",
        *([END] if outer is not None else []),
        **kwargs)


def _counts(src, **kwargs):
    """(steps committed by kernels beyond the fill, launches beyond the
    fill's two, refusals) of a compiled run honouring directives."""
    interp, _error = _compiled(src, **kwargs)
    return (interp.kernel_steps - NEST_FILL_STEPS,
            interp.kernel_launches - 2, interp.kernel_bails)


def _nest_equiv(src):
    """Both backends in all three modes — the regions a committed nest
    replays included — and the compiled backend's region tree, which
    prices to what the tree-walker charges priced in-run."""
    _equiv(src)
    program = _program(src)
    sites = sorted(number_omp_sites(program).values())

    def cases(profile):
        for machine in (INTEL_MAC, AMD_OPTERON):
            yield machine, frozenset()
            yield machine, frozenset(sites[::2])

    return check(program, cases)


#: SPEC77's SYNTH: a row reduction carried from the enclosing body's
#: ``S = 0.0``, under the directives Polaris gives both levels
SYNTH_NEST = source(
    "      PROGRAM P",
    "      COMMON /SPC/ COEF(80), GRID(64, 24), PLM(80)",
    "      NW = 80",
    "      L = 3",
    "      DO 5 I = 1, 80",
    "        COEF(I) = 1.0/(I+1.0)",
    "        PLM(I) = 1.0 + I*0.01",
    "    5 CONTINUE",
    omp("PRIVATE(K,S)"),
    "      DO 20 I = 1, 64",
    "        S = 0.0",
    omp("REDUCTION(+:S)"),
    "        DO 15 K = 1, NW",
    "          S = S+COEF(K)*PLM(K)",
    "   15   CONTINUE",
    END,
    "        GRID(I,L) = S*0.01+I*0.001",
    "   20 CONTINUE",
    END,
    "      WRITE(*,*) GRID(1, 3), GRID(64, 3), S, K, I",
    "      END")

#: DYFESM's ID/I nest: a varying INTEGER division beside an inner loop
#: whose subscripts move on both axes
DYFESM_NEST = source(
    "      PROGRAM P",
    "      COMMON /GEOM/ ICOND(16, 500), IWHERD(16, 500), IEGEOM(500)",
    omp("PRIVATE(I)"),
    "      DO ID = 1, 500",
    "        IEGEOM(ID) = 1+ID/10",
    omp(),
    "        DO 10 I = 1, 16",
    "          ICOND(I,ID) = (ID-1)*16+I",
    "          IWHERD(I,ID) = (ID-1)*16+I",
    "   10   CONTINUE",
    END,
    "      END DO",
    END,
    "      WRITE(*,*) IEGEOM(9), IEGEOM(10), ICOND(16, 500), I, ID",
    "      END")

#: ARC2D's STEP: three levels, a directive on each
STEP_NEST = source(
    "      PROGRAM P",
    "      COMMON /FLOW/ PP(4, 4, 15)",
    omp("PRIVATE(I,J)"),
    "      DO 35 KS = 1, 15",
    omp("PRIVATE(I)"),
    "        DO 34 J = 1, 4",
    omp(),
    "          DO 33 I = 1, 4",
    "            PP(I,J,KS) = PP(I,J,KS)*0.9+0.01*I+J+KS*0.5",
    "   33     CONTINUE",
    END,
    "   34   CONTINUE",
    END,
    "   35 CONTINUE",
    END,
    "      WRITE(*,*) PP(1, 1, 1), PP(4, 4, 15), I, J, KS",
    "      END")

#: the second ``DO J`` reads what the first stored, under the same text
SIBLING_LOOPS = _nest(
    "      DO 30 I = 1, 6",
    "        DO 10 J = 1, 4",
    "          Y(I, J) = X(I, J)*2",
    "   10   CONTINUE",
    "        DO 20 J = 5, 8",
    "          X(I, J) = Y(I, J) + 1",
    "   20   CONTINUE",
    "   30 CONTINUE",
    after=("      WRITE(*,*) X(1, 5), X(6, 8), Y(6, 4), I, J",))

NOT_INJECTIVE = {
    "axis-unmoved": _rect("A(I) = A(I) + X(I, J)",
                          after=("      WRITE(*,*) A(1), A(6)",)),
    "shared-diagonal": _rect("A(I+J) = A(I+J) + 1.0",
                             after=("      WRITE(*,*) A(2), A(7), A(14)",)),
}


class TestLoopNests:
    """A rectangular nest is one launch with one axis per loop.  Each
    program says what the kernel is expected to have done and goes
    through all three modes on both backends, regions and cost included,
    and its recorded tree is priced on both machines."""

    def test_spec77_row_reduction(self):
        profile = _nest_equiv(SYNTH_NEST)
        interp, _ = _compiled(SYNTH_NEST)
        assert (interp.kernel_launches, interp.kernel_bails) == (2, 0)
        assert interp.kernel_steps == 80 * 3 + 64 * (4 + 80 * 2)
        # one region execution inside every iteration, all one vector
        outer, = profile.roots
        assert [pos for pos, _kid in outer.children] == list(range(64))
        assert len({id(kid.costs) for _pos, kid in outer.children}) == 1

    def test_dyfesm_integer_division_nest(self):
        _nest_equiv(DYFESM_NEST)
        interp, _ = _compiled(DYFESM_NEST)
        assert (interp.kernel_launches, interp.kernel_bails) == (1, 0)
        assert interp.kernel_steps == interp.steps - 2
        assert interp.output == ["1.0 2.0 8000.0 17.0 501.0"]

    def test_three_deep(self):
        profile = _nest_equiv(STEP_NEST)
        interp, _ = _compiled(STEP_NEST)
        assert (interp.kernel_launches, interp.kernel_bails) == (1, 0)
        outer, = profile.roots
        assert len(outer.children) == 15
        assert all(len(kid.children) == 4 for _pos, kid in outer.children)

    def test_flat_reduction_across_both_levels(self):
        src = _rect("S = S + X(I, J)", before=("      S = 0.25",),
                    outer=("PRIVATE(I)", "REDUCTION(+:S)"),
                    inner=("REDUCTION(+:S)",))
        _nest_equiv(src)
        assert _counts(src) == (NEST_STEPS(1), 1, 0)

    @pytest.mark.parametrize("between,body", [
        # assigned outside, re-assigned inside, read before that: the
        # second inner iteration reads what the first one wrote
        (("T = J*2.0",), ("Y(I, J) = T", "T = X(I, J)")),
        # a row reduction read before its own statement
        (("S = 0.0",), ("Y(I, J) = S", "S = S + X(I, J)")),
        # a reduced scalar written again inside its own loop
        (("S = 0.0",), ("S = S + X(I, J)", "S = S*0.5")),
    ], ids=["reassigned", "reduction-read-early", "reduction-rewritten"])
    def test_a_scalar_carried_around_the_inner_loop_refuses(self, between,
                                                            body):
        src = _rect(*body, between=between)
        _nest_equiv(src)
        # decided when lowered, for the nest and for the inner loop
        assert _counts(src) == (0, 0, 0)

    def test_enclosing_temporaries_and_collapse(self):
        # T from the enclosing body, U written inside and read after
        # the loop closed: its value at the last inner iteration
        src = _rect("U = X(I, J) + T", "Y(I, J) = U*2",
                    before=("      U = 0.0",), between=("T = J*2.0",),
                    closing=("B(J) = U + T",))
        _nest_equiv(src)
        assert _counts(src) == (8 * (4 + 6 * 3), 1, 0)

    @pytest.mark.parametrize("name", sorted(NOT_INJECTIVE))
    def test_a_store_two_iterations_share_refuses(self, name):
        src = NOT_INJECTIVE[name]
        _nest_equiv(src)
        # the nest refuses at launch; the inner loop is a kernel of its own
        assert _counts(src) == (8 * 6 * 2, 8, 1)

    def test_sibling_loops_never_share_a_temporary(self):
        _nest_equiv(SIBLING_LOOPS)
        assert _counts(SIBLING_LOOPS) == (6 * (3 + 4 * 2 + 4 * 2), 1, 0)
        # with different bounds the two texts overlap in storage: refused
        src = SIBLING_LOOPS.replace("J = 5, 8", "J = 2, 7")
        _nest_equiv(src)
        assert _counts(src)[1:] == (12, 1)

    def test_an_aliased_inner_do_variable_is_restored(self):
        # Q is J's cell: the launch sets it, the overlap check sees the
        # hoisted read and refuses, and the replay must find 5 there
        src = source(
            *_NEST_HEAD,
            "      COMMON /V/ J",
            *_NEST_FILL,
            "      J = 5",
            "      CALL SUB(J)",
            "      WRITE(*,*) B(1), B(2), Y(6, 8)",
            "      END",
            "      SUBROUTINE SUB(Q)",
            "      INTEGER Q",
            *_NEST_HEAD[2:],
            "      COMMON /V/ J",
            "      I = 0",
            "      DO 20 I = 1, 6",
            "        B(I) = Q*1.0",
            "        DO 10 J = 1, 8",
            "          Y(I, J) = X(I, J)",
            "   10   CONTINUE",
            "   20 CONTINUE",
            "      END")
        _nest_equiv(src)
        interp, _ = _compiled(src)
        assert interp.output == ["5.0 9.0 8.0"]
        assert interp.kernel_bails == 1

    @pytest.mark.parametrize("between,header,counts", [
        # a bound the nest assigns: refused when lowered
        (("N = 6",), "1, N", (8 * 6 * 2, 8, 0)),
        (("S = 6.0",), "1, INT(S)", (8 * 6 * 2, 8, 0)),
        # invariant bounds the launch evaluates
        ((), "1, K(15)*3", (NEST_STEPS(1), 1, 0)),
        ((), "6, 1, -1", (NEST_STEPS(1), 1, 0)),
        ((), "5, 6", (8 * (2 + 2 * 2), 1, 0)),
        # zero trips, and a REAL start the INTEGER variable truncates
        ((), "1, 0", (0, 0, 1)),
        ((), "1.5, 6", (0, 0, 1 + 8)),
    ], ids=["assigned-bound", "assigned-in-expression", "invariant-bound",
            "negative-step", "short", "zero-trip", "real-start"])
    def test_inner_bounds(self, between, header, counts):
        src = _rect("Y(I, J) = X(I, J)*2", between=between,
                    inner_header=header)
        _nest_equiv(src)
        assert _counts(src) == counts

    @pytest.mark.parametrize("outer,inner,between,body", [
        # an array: zeroed per iteration, at either level
        (("PRIVATE(I)",), ("PRIVATE(B)",), (),
         ("B(I) = X(I, J)", "Y(I, J) = B(I)")),
        (("PRIVATE(I,A)",), (), (), ("A(I) = X(I, J)", "Y(I, J) = A(I+6)")),
        # read, never written
        (("PRIVATE(I,T)",), (), (), ("Y(I, J) = X(I, J) + T",)),
        (("PRIVATE(I)",), ("PRIVATE(T)",), (), ("Y(I, J) = X(I, J) + T",)),
        # written by the enclosing body: private to the inner loop, every
        # iteration but the last reads zero
        (("PRIVATE(I)",), ("PRIVATE(T)",), ("T = J*2.0",),
         ("Y(I, J) = X(I, J) + T",)),
        # a privatised reduction: flat at the outer level, by row at the
        # inner one
        (("PRIVATE(I,S)",), (), (), ("S = S + X(I, J)",)),
        (("PRIVATE(I)",), ("PRIVATE(S)",), ("S = 0.0",),
         ("S = S + X(I, J)",)),
    ], ids=["inner-array", "outer-array", "outer-read-only",
            "inner-read-only", "inner-carried", "outer-reduction",
            "inner-reduction"])
    def test_observable_privatisation_at_either_level(self, outer, inner,
                                                      between, body):
        src = _rect(*body, between=between, outer=outer, inner=inner,
                    after=("      WRITE(*,*) S, T, Y(1, 1), Y(6, 8), B(6)",))
        _nest_equiv(src)
        steps, launches, _bails = _counts(src)
        # no launch took the whole nest
        assert steps < NEST_STEPS(len(body)) and launches != 1
        assert not diff_test(_program(src), backend="compiled").passed

    def test_unobservable_privatisation_at_both_levels(self):
        # the inner DO variable, a temporary and the carried row sum
        src = _rect("T = X(I, J)*2", "S = S + T", "Y(I, J) = S",
                    between=("S = 0.0",), outer=("PRIVATE(I,S,T)",),
                    inner=("PRIVATE(T)", "REDUCTION(+:S)"))
        _nest_equiv(src)
        assert _counts(src) == (NEST_STEPS(3) + 8, 1, 0)

    def test_a_corner_out_of_bounds(self):
        # W(48) is touched at the last inner iteration of the last outer
        # one only: same error, same state as the tree
        src = _rect("W(I + 6*(J-1)) = X(I, J)",
                    decls=("      COMMON /E/ W(47)",))
        _equiv(src)
        tree, compiled = _both(src)
        assert "subscript 48 out of bounds" in tree[0]
        assert tree[:2] + tree[3:] == compiled[:2] + compiled[3:]
        assert _counts(src) == (8 * 6 * 2 - 12, 7, 2)

    @pytest.mark.parametrize("expr,error", [
        ("(I - 4)/(J - 10)", None), ("(3 - I)/2 + K(J)/(0 - 2)", None),
        ("(I*J - 20)/(I - 7)", None), ("J/(I - 3)", "division by zero"),
    ])
    def test_varying_integer_division(self, expr, error):
        src = _rect(f"L = {expr}", "Y(I, J) = L", before=("      L = 0",),
                    after=("      WRITE(*,*) L, Y(1, 1), Y(6, 8)",))
        _equiv(src)
        tree, compiled = _both(src)
        assert tree[:2] + tree[3:] == compiled[:2] + compiled[3:]
        if error is None:
            assert tree[0] is None and tree[2] == compiled[2]
            assert _counts(src) == (NEST_STEPS(2), 1, 0)
        else:
            assert error in tree[0] and _counts(src)[0] == 0

    def test_a_plain_nest_around_directives(self):
        src = _rect("Y(I, J) = X(I, J)*2", inner=())
        profile = _nest_equiv(src)
        assert _counts(src) == (NEST_STEPS(1), 1, 0)
        # eight top-level executions of the one site, one vector
        assert len(profile.roots) == 8
        assert len({id(node.costs) for node in profile.roots}) == 1
        # any other schedule runs the directive iteration by iteration,
        # so nothing containing it may launch
        assert _counts(src, iteration_order=ORDER_PERMUTED) == (0, 0, 0)


# mutants of the nest rules (item 7's discipline: patch one decision, the
# oracle must object)

@pytest.mark.usefixtures("fresh_templates")
class TestNestMutants:
    @pytest.mark.parametrize("name,replacement,src", [
        ("_vec_injective", lambda strides: True,
         NOT_INJECTIVE["shared-diagonal"]),
        ("_vec_injective", lambda strides: True,
         NOT_INJECTIVE["axis-unmoved"]),
        # the collapse at loop exit keeping the first element
        ("_vec_last",
         lambda v, ndim: v[0] if getattr(v, "ndim", 0) == ndim else v,
         SYNTH_NEST),
        # the access key without its loop identity
        ("_vec_key", lambda e, scope: (e.name.upper(), repr(e.subs)),
         SIBLING_LOOPS),
    ], ids=["injective-diagonal", "injective-unmoved", "collapse", "key"])
    def test_the_oracle_objects(self, name, replacement, src):
        with mock.patch.object(compiler, name, replacement):
            divergence = backend_equivalence(_program(src))
        assert divergence is not None

    def test_no_mutant_no_divergence(self):
        for src in (*NOT_INJECTIVE.values(), SYNTH_NEST, SIBLING_LOOPS):
            _equiv(src)


# random straight-line affine bodies, with and without a second level, x
# random PRIVATE subsets at each: whichever way the static rules, the
# order mode and the kernel's hazard checks decide, both backends agree
# in all three modes, regions included

_SUBSCRIPTS = ["I", "I+1", "I-1", "2*I", "21-I", "3", "K(3)+I", "I+T/2"]
#: inside the inner loop: its variable alone (no stride on the outer
#: axis), with I (shared diagonals, and strides that separate), invariant
_INNER_SUBSCRIPTS = ["4*I+J", "4*I-J", "I+4*J", "4*I+J", "I+J", "I", "J",
                     "K(3)+J"]
_SCALARS = ("S", "T", "U")
_HEADERS = st.sampled_from(["2, 13", "13, 2, -1", "2, 20, 3", "2, 5",
                            "2, 4", "5, 4"])
_INNER_HEADERS = st.sampled_from(["1, 3", "3, 1, -1", "2, 3", "1, K(3)+2",
                                  "2, 8, 2", "1, 0", "1, INT(T)", "1.5, 3"])


def _elements(subscripts, arrays=("A", "B", "K")):
    return st.builds("{}({})".format, st.sampled_from(arrays),
                     st.sampled_from(subscripts))


def _values(scalars, elements, plain):
    """Expressions reading ``scalars``: the operators that have a vector
    arm and, unless ``plain``, ``SQRT`` (which refuses a negative), and
    ``**`` and ``MOD``, which a kernel takes only as part of an invariant
    operand."""
    def combine(kids):
        arms = [st.builds("({} {} {})".format, kids,
                          st.sampled_from(["+", "-", "*", "/"]), kids),
                st.builds("ABS({})".format, kids),
                st.builds("MAX({}, {})".format, kids, kids)]
        if not plain:
            arms += [st.builds("({}**{})".format, kids,
                               st.sampled_from(["2", "0.5", "(-1)", "K(3)"])),
                     st.builds("SQRT({})".format, kids),
                     st.builds("MOD({}, {})".format, kids, kids)]
        return st.one_of(arms)
    return st.recursive(
        st.one_of(st.sampled_from(tuple(scalars) + ("I", "2", "0.5", "K(3)",
                                                    "A(K(2))")),
                  elements),
        combine, max_leaves=4)


def _statements(draw, count, subscripts, assigned, temporaries, plain):
    """``count`` assignments to a scalar or to an element of A, B or K.
    With ``temporaries`` a value reads only what was assigned before it,
    by its text, and the arrays C and D, which nothing stores into — so
    no read can meet a store under another name; without, anything."""
    elements = _elements(subscripts)
    body = []
    for _ in range(draw(count)):
        target = draw(st.one_of(st.sampled_from(_SCALARS), elements))
        value = draw(
            _values(sorted(assigned), _elements(subscripts, ("C", "D")),
                    plain) if temporaries
            else _values(_SCALARS, elements, plain))
        body.append(f"{target} = {value}")
        assigned.add(target)
    return body


def _private(draw, assigned, var):
    """Half the PRIVATE sets are drawn from what the kernel arm accepts —
    the scalars assigned so far and the DO variables — and half from
    everything, the array B and the bystander Q included."""
    pool = draw(st.sampled_from([sorted(assigned & set(_SCALARS)) + [var],
                                 list(_SCALARS) + ["I", "J", "B", "Q"]]))
    names = draw(st.sets(st.sampled_from(pool)))
    return [f"PRIVATE({','.join(sorted(names))})"] if names else []


@st.composite
def _directive_loops(draw):
    """(body lines, the directive's clauses).  Half the bodies read only
    what they have already assigned (temporaries, which the kernel takes)
    and half any scalar (recurrences and reductions); half are plain
    arithmetic, every operator of which has a vector arm; half have a second
    level — a loop over J, under a directive of its own or plain,
    anywhere among the statements, reading and re-assigning what the
    enclosing body assigned."""
    temporaries, plain = draw(st.booleans()), draw(st.booleans())
    assigned = set()
    body = _statements(draw, st.integers(1, 4), _SUBSCRIPTS, assigned,
                       temporaries, plain)
    # a statement must fit a fixed-form card behind ten blanks
    assume(all(len(stmt) <= 62 for stmt in body))
    lines = ["        " + stmt for stmt in body]
    if draw(st.booleans()):
        inner = _statements(draw, st.integers(1, 3), _INNER_SUBSCRIPTS,
                            assigned, temporaries, plain)
        assume(all(len(stmt) <= 62 for stmt in inner))
        nest = [f"        DO 8 J = {draw(_INNER_HEADERS)}",
                *("          " + stmt for stmt in inner),
                "    8   CONTINUE"]
        if draw(st.booleans()):
            clauses = _private(draw, assigned, "J") \
                + draw(st.sampled_from([[], ["REDUCTION(+:S)"]]))
            nest = [omp(*clauses), *nest, END]
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = nest
    return lines, _private(draw, assigned | {"J"}, "I")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(loop=_directive_loops(), header=_HEADERS,
       reduction=st.sampled_from(["", "REDUCTION(+:S)"]))
def test_directive_loops_agree_with_the_tree(loop, header, reduction):
    lines, clauses = loop
    src = source(
        "      PROGRAM P",
        "      INTEGER K",
        "      COMMON /D/ A(99), B(99), K(99), C(99), D(99), S, T, U, Q",
        "      DO 5 I = 1, 99",
        "        A(I) = I*0.5",
        "        B(I) = 41 - I",
        "        K(I) = I/2",
        "        C(I) = I*0.25",
        "        D(I) = 50 - I",
        "    5 CONTINUE",
        "      J = 0",
        "      S = 1.5",
        "      T = 2.0",
        "      U = -0.25",
        omp(*clauses, reduction),
        f"      DO 10 I = {header}",
        *lines,
        "   10 CONTINUE",
        END,
        "      WRITE(*,*) S, T, U, I, J",
        "      END")
    _equiv(src)


#: the share of a benchmark's steps its kernels must keep committing
KERNEL_SHARE_FLOORS = {"ADM": 0.97, "ARC2D": 0.99, "BDNA": 0.99,
                       "DYFESM": 0.87, "FLO52Q": 0.99, "MDG": 0.29,
                       "MG3D": 0.99, "OCEAN": 0.98, "SPEC77": 0.98,
                       "TRFD": 0.98}


def test_perfect_kernel_share_is_pinned():
    """The Figure 20 gain as counts: over the 12 PERFECT programs under
    ``annotation`` with directives honoured, kernels commit 581 713 of
    the 659 178 statement steps (569 388 before a launch could step a
    carried inner loop and take MAX/MIN and chained reductions and the
    root's private arrays, 560 400 while a launch was one inner loop,
    521 200 before operands were admitted by invariance, 9 600 before
    honoured directives took the kernel) in 684 launches (1 086 before
    those four shapes, 4 041 before a rectangular nest was one launch),
    and 1 more call refuses (65 before a carried dependence was refused
    when lowered).  An
    eligibility regression moves these numbers, and the obs counters
    report the same totals."""
    from repro.experiments.pipeline import Config, run_config
    from repro.obs import metrics as obs_metrics
    names = ("steps", "kernel_steps", "kernel_launches", "kernel_bails")
    reported = [obs_metrics.counter(f"repro_runtime_{name}_total")
                for name in names]
    before = [c.total() for c in reported]
    totals = [0] * len(names)
    for bench in all_benchmarks():
        program = run_config(bench, Config("annotation")).program
        interp = make_interpreter(program, "compiled",
                                  inputs=list(bench.inputs))
        interp.run()
        totals = [t + getattr(interp, name) for t, name in zip(totals, names)]
        share = interp.kernel_steps / interp.steps
        assert share >= KERNEL_SHARE_FLOORS.get(bench.name, 0.0), \
            (bench.name, share)
    assert totals == [659_178, 581_713, 684, 1]
    assert [c.total() - b for c, b in zip(reported, before)] == totals


def test_bdna_none_kernel_takes_invariant_operands():
    """BDNA's ``none`` program, directives honoured: ``PCINIT``'s loop
    goes to the kernel because ``TSTEP**2/2.0`` is loop-invariant, so
    kernels commit 36 800 of its 38 875 steps."""
    from repro.experiments.pipeline import Config, run_config
    bench = get_benchmark("BDNA")
    program = run_config(bench, Config("none")).program
    interp = make_interpreter(program, "compiled", inputs=list(bench.inputs))
    interp.run()
    assert interp.kernel_steps > 0.94 * interp.steps


# ---------------------------------------------------------------------------
# what an activation pays once: the locals layout, uniform regions,
# rank-2 element access
# ---------------------------------------------------------------------------

def _equiv_steps(src):
    """``_equiv``, and the two backends' steps in all three modes."""
    _equiv(src)
    for kwargs in (dict(honor_directives=False),
                   dict(iteration_order=ORDER_SEQUENTIAL),
                   dict(iteration_order=ORDER_PERMUTED)):
        steps = []
        for cls in (Interpreter, CompiledInterpreter):
            interp = cls(_program(src), **kwargs)
            try:
                interp.run()
            except Exception:  # noqa: BLE001 - errors are part of the contract
                pass
            steps.append(interp.steps)
        assert steps[0] == steps[1], (kwargs, steps)


def _outputs(src):
    return [make_interpreter(_program(src), backend).run().output
            for backend in BACKENDS]


class TestActivationLayout:
    """From its second activation a unit binds the locals its first one
    created, laid out in one zeroed slab; the programs here are where
    that could show."""

    def test_fresh_locals_read_zero_on_every_activation(self):
        src = source(
            "      PROGRAM P",
            "      COMMON /R/ OUT(3)",
            "      DO 10 I = 1, 3",
            "        CALL F(I)",
            "   10 CONTINUE",
            "      WRITE(*,*) OUT(1), OUT(2), OUT(3)",
            "      END",
            "      SUBROUTINE F(I)",
            "      COMMON /R/ OUT(3)",
            "      DIMENSION W(4)",
            "      INTEGER J",
            "      OUT(I) = X + W(2) + J",
            "      X = I*1.5",
            "      W(2) = 7.0",
            "      J = 3",
            "      END")
        _equiv_steps(src)
        assert _outputs(src) == [["0.0 0.0 0.0"]] * 2

    def test_reentered_unit_gets_its_own_locals(self):
        src = source(
            "      PROGRAM P",
            "      COMMON /R/ OUT(3)",
            "      CALL R(3)",
            "      CALL R(3)",
            "      WRITE(*,*) OUT(1), OUT(2), OUT(3)",
            "      END",
            "      SUBROUTINE R(N)",
            "      COMMON /R/ OUT(3)",
            "      X = N",
            "      IF (N.GT.1) CALL R(N-1)",
            "      OUT(N) = OUT(N) + X + Y",
            "      Y = 100.0",
            "      END")
        _equiv_steps(src)
        assert _outputs(src) == [["2.0 4.0 6.0"]] * 2

    @pytest.mark.parametrize("last", ["4", "5"])
    def test_laid_out_local_array_ends_where_it_did(self, last):
        # its second activation passes a laid-out W to an assumed-size
        # formal: storage still ends at W(4)
        src = source(
            "      PROGRAM P",
            "      COMMON /R/ OUT",
            "      CALL F(1)",
            f"      CALL F({last})",
            "      WRITE(*,*) OUT",
            "      END",
            "      SUBROUTINE F(N)",
            "      COMMON /R/ OUT",
            "      DIMENSION W(4)",
            "      W(1) = 2.0",
            "      X = 5.0",
            "      CALL G(W, N)",
            "      OUT = OUT + X",
            "      END",
            "      SUBROUTINE G(V, N)",
            "      COMMON /R/ OUT",
            "      DIMENSION V(*)",
            "      OUT = OUT + V(N)",
            "      END")
        _equiv_steps(src)
        for backend in BACKENDS:
            interp = make_interpreter(_program(src), backend)
            if last == "4":
                assert interp.run().output == ["12.0"]
                continue
            with pytest.raises(InterpreterError,
                               match="reference beyond storage of V"):
                interp.run()

    def test_laid_out_empty_local_array_has_no_storage(self):
        src = source(
            "      PROGRAM P",
            "      COMMON /R/ OUT",
            "      CALL F(0)",
            "      CALL F(1)",
            "      END",
            "      SUBROUTINE F(N)",
            "      DIMENSION W(0)",
            "      CALL G(W, N)",
            "      END",
            "      SUBROUTINE G(V, N)",
            "      COMMON /R/ OUT",
            "      DIMENSION V(*)",
            "      IF (N.GT.0) OUT = V(N)",
            "      END")
        _equiv_steps(src)
        for backend in BACKENDS:
            with pytest.raises(InterpreterError,
                               match="reference beyond storage of V"):
                make_interpreter(_program(src), backend).run()

    def test_function_skipping_its_result_raises_on_second_call(self):
        src = source(
            "      PROGRAM P",
            "      COMMON /R/ X",
            "      X = F(1.0)",
            "      X = F(-1.0)",
            "      END",
            "      REAL FUNCTION F(A)",
            "      IF (A.GT.0.0) F = A",
            "      END")
        _equiv_steps(src)
        for backend in BACKENDS:
            with pytest.raises(InterpreterError,
                               match="function F never set its result"):
                make_interpreter(_program(src), backend).run()

    @pytest.mark.parametrize("body", [
        # the kernel's shape: T written before it is read
        ("        T = A(I) + K", "        A(I) = T*0.5"),
        # the scalar path's: a branch keeps the kernel out
        ("        IF (I.GT.K) T = A(I) + K",
         "        A(I) = T*0.5")])
    def test_private_local_of_a_directive_in_a_called_unit(self, body):
        src = source(
            "      PROGRAM P",
            "      COMMON /D/ A(12)",
            "      DO 5 K = 1, 3",
            "        CALL G(K)",
            "    5 CONTINUE",
            "      WRITE(*,*) A(1), A(12)",
            "      END",
            "      SUBROUTINE G(K)",
            "      COMMON /D/ A(12)",
            "      T = 9.0",
            omp("PRIVATE(I,T)"),
            "      DO 10 I = 1, 12",
            *body,
            "   10 CONTINUE",
            END,
            "      WRITE(*,*) T, I",
            "      END")
        _equiv_steps(src)


#: a (3, 2) REAL array, an INTEGER one, and a rank-3 one, in COMMON
_RANK2 = ("      PROGRAM P",
          "      COMMON /D/ A(3, 2), B(2, 2, 2), X",
          "      INTEGER K(3, 2)",
          "      COMMON /E/ K",
          "      A(3, 2) = 4.5",
          "      K(3, 1) = 7.9")


class TestRank2Access:
    """The fused rank-2 read and store keep ``ArrayView.get``/``set``'s
    messages and their order: subscripts, ``float(v)``, the INTEGER
    truncation, each dimension's bounds, then storage."""

    @pytest.mark.parametrize("stmt", [
        "X = A(3, 2) + K(3, 1)",
        "X = A(4, 1)", "X = A(0, 1)", "X = A(1, 3)", "X = A(1, 0)",
        "A(4, 1) = 1.0", "A(1, 3) = 1.0", "A(0, 0) = 1.0",
        "X = B(1, 1)", "B(1, 1) = 2.0",
        "K(2, 2) = -2.5", "X = K(3, 1)*1.5", "K(4, 1) = 1.0",
        "K(4, 1) = 1.0E200*1.0E200", "A(4, 1) = 'A'"])
    def test_element_access(self, stmt):
        _equiv_steps(source(*_RANK2, "      " + stmt,
                            "      WRITE(*,*) X, A(3, 2), K(2, 2), K(3, 1)",
                            "      END"))

    @pytest.mark.parametrize("stmt", ["X2(2, 3) = 1.5", "X2(1, 4) = 1.5",
                                      "Y = X2(2, 3)", "Y = X2(1, 4)"])
    def test_assumed_size_formal(self, stmt):
        _equiv_steps(source(
            "      PROGRAM P",
            "      COMMON /D/ A(6), Y",
            "      CALL H(A)",
            "      WRITE(*,*) A(6), Y",
            "      END",
            "      SUBROUTINE H(X2)",
            "      COMMON /D/ A(6), Y",
            "      DIMENSION X2(2, *)",
            "      " + stmt,
            "      END"))


def test_uniform_leaf_replays_at_one_site_with_two_shapes():
    """One directive's kernel replays a leaf region whose per-iteration
    cost and trip count differ between calls, and repeats: the compiled
    profile shares the repeats, equals the tree backend's, and equals
    itself built node by node."""
    src = source(
        "      PROGRAM P",
        "      COMMON /D/ A(6, 5)",
        "      CALL W(4, 4)",
        "      CALL W(6, 4)",
        "      CALL W(4, 5)",
        "      CALL W(4, 4)",
        "      CALL W(6, 4)",
        "      WRITE(*,*) A(1, 1), A(6, 4), A(4, 5)",
        "      END",
        "      SUBROUTINE W(N, M)",
        "      COMMON /D/ A(6, 5)",
        omp("PRIVATE(J)"),
        "      DO 10 I = 1, N",
        "        DO 20 J = 1, M",
        "          A(I, J) = A(I, J) + I + J*0.5",
        "   20   CONTINUE",
        "   10 CONTINUE",
        END,
        "      END")
    _nest_equiv(src)
    program = _program(src)
    profile = record(program, "compiled")
    assert profile == record(program, "tree")
    assert RegionProfile(profile.work, tuple(
        _rebuilt(node) for node in profile.roots)) == profile
    executions, distinct = _nodes(profile)
    assert (executions, len(distinct)) == (5, 3)
    assert len({tuple(node.costs) for node in distinct}) == 3
    interp, _ = _compiled(src)
    assert (interp.kernel_launches, interp.kernel_bails) == (5, 0)


def test_mdg_creates_locals_only_in_first_activations(monkeypatch):
    """MDG's one execution a Figure 20 pass: a unit's locals are created
    in its first activation only (a FUNCTION's result apart, which each
    call must set), and later activations bind its layout — 361 locals
    a pass where there were 55 966."""
    from collections import Counter
    from repro.experiments.pipeline import Config, run_config
    bench = get_benchmark("MDG")
    program = run_config(bench, Config("annotation")).program
    activations, stack, created = Counter(), [], []
    real_activate, real_local = Interpreter._activate, Interpreter._local

    def activate(self, frame):
        stack.append(activations[frame.unit.name])
        activations[frame.unit.name] += 1
        try:
            return real_activate(self, frame)
        finally:
            stack.pop()

    def local(self, name, frame):
        if name.upper() not in frame.vars:
            created.append((frame.unit.name, name.upper(), stack[-1]))
        return real_local(self, name, frame)

    monkeypatch.setattr(Interpreter, "_activate", activate)
    monkeypatch.setattr(Interpreter, "_local", local)
    make_interpreter(program, "compiled", inputs=list(bench.inputs)).run()
    functions = {u.name for u in program.units if u.kind == "FUNCTION"}
    late = [c for c in created if c[2] and c[0] not in functions]
    assert late == []
    assert activations["INTERF"] > 300 and len(created) < 400


def test_gathered_read_yields_to_a_store_under_its_key():
    """A launch gathers ``A(I)`` once; the store under the same key then
    replaces it, so the read after the store sees the stored values."""
    src = _loop("B(I) = A(I)", "A(I) = A(I) + 1.5", "K(I) = A(I)*2",
                after=("      WRITE(*,*) B(12), A(12), K(12)",))
    _equiv_steps(src)
    interp, error = _compiled(src)
    assert error is None and interp.kernel_launches == 2
    assert interp.output == ["6.0 7.5 15.0"]


# ---------------------------------------------------------------------------
# the loops Figure 20 ran per iteration: a stepped carried inner loop,
# MAX/MIN and chained reductions, the root's private arrays
# ---------------------------------------------------------------------------

def _launch(src, **kwargs):
    """(launches, refusals, kernel steps, steps) of a compiled run
    honouring directives."""
    interp, _error = _compiled(src, **kwargs)
    return (interp.kernel_launches, interp.kernel_bails, interp.kernel_steps,
            interp.steps)


#: ADM's diffusion sweep: the inner loop carries C(I-1,K) -> C(I,K), the
#: outer one nothing — a launch steps I and vectorises K
def _stepped(*body, header="2, 11", outer="1, 8", directive=("PRIVATE(I)",),
             after=("      WRITE(*,*) C(2, 1), C(11, 8), I, K",)):
    return source(
        "      PROGRAM P",
        "      COMMON /D/ C(12, 8), E(107), PLM(12), D(12, 8)",
        "      I = 0",
        "      K = 0",
        "      DO 5 K = 1, 8",
        "        DO 4 I = 1, 12",
        "          C(I, K) = I*0.01 + K*0.002",
        "    4   CONTINUE",
        "    5 CONTINUE",
        "      DO 6 I = 1, 107",
        "        E(I) = I*0.5",
        "    6 CONTINUE",
        *([omp(*directive)] if directive is not None else []),
        f"      DO 44 K = {outer}",
        f"        DO 43 I = {header}",
        *("          " + stmt for stmt in body),
        "   43   CONTINUE",
        "   44 CONTINUE",
        *([END] if directive is not None else []),
        *after,
        "      END")


#: the fill: one two-axis launch (8 x 26 steps) and one of 107 x 2
STEPPED_FILL = (2, 8 * 26 + 107 * 2)
ADM_SWEEP = "C(I,K) = C(I,K) + (C(I-1,K) - 2.0*C(I,K) + C(I+1,K))*0.1"


class TestSteppedLaunch:
    """A nest whose inner loop alone carries a dependence: the launch
    steps that loop and runs every lane of the outer axis at once."""

    def test_adm_sweep_is_one_launch(self):
        src = _stepped(ADM_SWEEP)
        _nest_equiv(src)
        launches, bails, kernel, _steps = _launch(src)
        # 8 lanes x (the header, 10 x 2 steps, the CONTINUE)
        assert (launches, bails, kernel) == (
            STEPPED_FILL[0] + 1, 0, STEPPED_FILL[1] + 8 * 22)

    def test_two_statements_read_each_others_stores(self):
        # the second statement reads what the first stored this step
        # under another text, and the first what the second stored one
        # step before
        src = _stepped("C(I,K) = C(I-1,K)*0.5 + PLM(I)",
                       "C(I-1+1,K) = C(I,K) + C(I-2+1,K)*0.25",
                       header="3, 12")
        _nest_equiv(src)
        assert _launch(src)[:2] == (STEPPED_FILL[0] + 1, 0)

    def test_out_of_bounds_at_the_last_step_of_the_last_lane(self):
        # E(108) is reached at I = 12, K = 8 only: the corners refuse the
        # launch, and the walk stores every earlier lane and step first
        src = _stepped("C(I,K) = C(I-1,K) + E(I + 12*K)", header="2, 12")
        _equiv(src)
        tree, compiled = _both(src)
        assert "subscript 108 out of bounds" in tree[0]
        assert tree[:2] + tree[3:] == compiled[:2] + compiled[3:]
        assert _launch(src)[:2] == (STEPPED_FILL[0], 1)

    def test_division_by_zero_at_a_middle_step(self):
        # steps I = 2..5 have stored when I = 6 divides by zero: the
        # refusal puts back what they stored
        src = _stepped("C(I,K) = C(I-1,K) + 1.0/(I - 6)")
        _equiv(src)
        tree, compiled = _both(src)
        assert "division by zero" in tree[0]
        assert tree[:2] + tree[3:] == compiled[:2] + compiled[3:]
        assert _launch(src)[:2] == (STEPPED_FILL[0], 1)

    @pytest.mark.parametrize("max_steps", [424, 430, 500, 598])
    def test_step_limit_inside_the_nest(self, max_steps):
        program = _program(_stepped(ADM_SWEEP))
        seen = []
        for cls in (Interpreter, CompiledInterpreter):
            interp = cls(program, max_steps=max_steps)
            with pytest.raises(InterpreterError) as caught:
                interp.run()
            seen.append((str(caught.value), interp.steps,
                         interp.commons["D"].tobytes()))
        assert seen[0] == seen[1]
        assert seen[0][:2] == ("execution step limit exceeded",
                               max_steps + 1)

    @pytest.mark.parametrize("directive", [None, ("PRIVATE(I)",)],
                             ids=["plain", "directive"])
    def test_overlapping_lanes_refuse(self, directive):
        # every lane K reads and stores all of PLM: statically only I
        # carries, and the lane check refuses at run time
        src = _stepped("PLM(I) = PLM(I-1)*0.5 + C(I,K)",
                       directive=directive,
                       after=("      WRITE(*,*) PLM(2), PLM(11)",))
        _equiv(src)
        assert _launch(src)[:3] == (STEPPED_FILL[0], 1, STEPPED_FILL[1])

    def test_a_carried_outer_dimension_refuses_when_lowered(self):
        # C(I,K-1) moves with K, a vector axis: no stepped launch
        src = _stepped("C(I,K) = C(I-1,K) + C(I,K-1)", outer="2, 8")
        _equiv(src)
        assert _launch(src)[:2] == (STEPPED_FILL[0], 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lag=st.integers(1, 3), lead=st.integers(0, 2), slack=st.integers(0, 3),
       span=st.integers(1, 8), over=st.sampled_from([0, 0, 0, 1]),
       outer=st.sampled_from(["1, 8", "8, 1, -1", "2, 8, 2", "1, 3"]),
       a=st.sampled_from(["0.5", "1.25", "(-0.75)"]),
       b=st.sampled_from(["0.1", "2.0", "(-3.5)"]),
       second=st.booleans())
def test_stepped_launches_agree_with_the_tree(lag, lead, slack, span, over,
                                              outer, a, b, second):
    # mostly in bounds (a launch commits), one in four past the last row
    first = lag + slack
    last = min(12 - lead, first + span) + over
    body = [f"C(I,K) = C(I-{lag},K)*{a} + C(I+{lead},K)*{b}"]
    if second:
        body.append(f"D(I,K) = C(I-{lag},K) - D(I-1,K)*{a}")
    src = _stepped(*body, header=f"{first}, {last}", outer=outer)
    _equiv(src)


def _reduction(stmt, init="0.0", decls=(), setup=()):
    """FLO52Q's residual: a flat reduction over both axes of a nest of
    two directives."""
    return source(
        "      PROGRAM P",
        *decls,
        "      COMMON /D/ Q(12, 8), P(12, 8), R",
        "      J = 0",
        "      K = 0",
        "      DO 5 K = 1, 8",
        "        DO 4 J = 1, 12",
        "          Q(J, K) = J*0.5 - K",
        "          P(J, K) = K*0.25",
        "    4   CONTINUE",
        "    5 CONTINUE",
        *("      " + line for line in setup),
        f"      R = {init}",
        omp("PRIVATE(J)", "REDUCTION(MAX:R)"),
        "      DO 30 K = 1, 8",
        omp("REDUCTION(MAX:R)"),
        "        DO 28 J = 1, 12",
        f"          {stmt}",
        "   28   CONTINUE",
        END,
        "   30 CONTINUE",
        END,
        "      WRITE(*,*) R",
        "      END")


#: Q(5,3) = inf - inf, a NaN
NAN_AT_5_3 = ("Q(5, 3) = 1.0D300*1.0D300", "Q(5, 3) = Q(5, 3) - Q(5, 3)")
MAX_FORMS = ["R = MAX(R, ABS(Q(J,K) - P(J,K)))",
             "R = MAX(ABS(Q(J,K) - P(J,K)), R)",
             "R = MIN(R, Q(J,K) - P(J,K))", "R = AMIN1(Q(J,K) - P(J,K), R)"]


class TestMaxMinReduction:
    @pytest.mark.parametrize("stmt", MAX_FORMS)
    def test_takes_the_kernel(self, stmt):
        src = _reduction(stmt)
        _nest_equiv(src)
        launches, bails, kernel, steps = _launch(src)
        assert (launches, bails) == (2, 0)
        # the fill and the nest: all but J = 0, K = 0, the two headers,
        # R = 0.0 and the WRITE
        assert steps - kernel == 6

    @pytest.mark.parametrize("stmt", MAX_FORMS)
    @pytest.mark.parametrize("init,setup", [
        ("0.0", NAN_AT_5_3),
        # ties of zeros of both signs: Q(J,K)*0.0 is -0.0 where Q < 0
        ("0.0", ()), ("-0.0", ()),
    ], ids=["nan", "zero", "negative-zero"])
    def test_nan_and_signed_zero_ties_refuse(self, stmt, init, setup):
        if not setup:
            stmt = stmt.replace("ABS(Q(J,K) - P(J,K))", "Q(J,K)*0.0") \
                .replace("Q(J,K) - P(J,K)", "Q(J,K)*0.0")
        src = _reduction(stmt, init=init, setup=setup)
        _equiv(src)
        # the nest refuses, and so does each inner loop the guard meets
        assert _launch(src)[1] >= 1

    def test_ties_of_equal_values_commit(self):
        # |Q - P| repeats along K; equal values are equal bits
        src = _reduction("R = MAX(ABS(Q(J,K) - P(J,K))*0.0 + 1.5, R)")
        _nest_equiv(src)
        assert _launch(src)[:2] == (2, 0)

    def test_an_integer_reduction_refuses(self):
        src = _reduction(MAX_FORMS[0], decls=("      INTEGER R",))
        _equiv(src)
        # the nest refuses at run time, and so does each inner loop
        assert _launch(src)[:2] == (1, 1 + 8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(form=st.sampled_from(MAX_FORMS),
       scale=st.sampled_from(["1.0", "0.0", "(-2.5)", "1.0D300*1.0D300"]),
       init=st.sampled_from(["0.0", "-0.0", "-1.0D300*1.0D300", "3.0"]),
       nan=st.booleans())
def test_max_min_reductions_agree_with_the_tree(form, scale, init, nan):
    stmt = form.replace("Q(J,K) - P(J,K)", f"Q(J,K)*{scale} - P(J,K)")
    assume(len(stmt) <= 62)
    _equiv(_reduction(stmt, init=init, setup=NAN_AT_5_3 if nan else ()))


def _chain(stmt, setup=(), directive=("REDUCTION(+:E)",)):
    """BDNA's energy: a chain of terms after the accumulator."""
    return source(
        "      PROGRAM P",
        "      COMMON /D/ FX(40), FY(40), E",
        "      DO 5 I = 1, 40",
        "        FX(I) = I*0.01",
        "        FY(I) = I*0.02 - 0.3",
        "    5 CONTINUE",
        *("      " + line for line in setup),
        "      E = 0.5",
        *([omp(*directive)] if directive is not None else []),
        "      DO 25 I = 1, 40",
        f"        {stmt}",
        "   25 CONTINUE",
        *([END] if directive is not None else []),
        "      WRITE(*,*) E",
        "      END")


NAN_AT_7 = ("FX(7) = 1.0D300*1.0D300", "FX(7) = FX(7) - FX(7)")


class TestChainedReduction:
    @pytest.mark.parametrize("stmt,directive", [
        ("E = E+FX(I)*FX(I)+FY(I)*FY(I)", ("REDUCTION(+:E)",)),
        ("E = E - FX(I) + FY(I)*3.0 - 0.125", ("REDUCTION(+:E)",)),
        ("E = E*(1.0 + FX(I))*(1.0 - FY(I)*0.1)", None),
    ], ids=["bdna", "minus", "product"])
    def test_takes_the_kernel(self, stmt, directive):
        src = _chain(stmt, directive=directive)
        _nest_equiv(src)
        assert _launch(src)[:3] == (2, 0, 3 * 40 + 2 * 40)

    def test_a_nan_minus_term_refuses(self):
        # E - NaN keeps the NaN's sign bit; E + (-NaN) would flip it
        src = _chain("E = E - FX(I) + FY(I)", setup=NAN_AT_7)
        _equiv(src)
        assert _launch(src)[:2] == (1, 1)

    def test_a_nan_plus_term_commits(self):
        src = _chain("E = E + FX(I) + FY(I)", setup=NAN_AT_7)
        _equiv(src)
        assert _launch(src)[:2] == (2, 0)

    def test_a_row_chain(self):
        src = _rect("S = S + X(I, J) - Y(I, J)*0.5 - A(I)",
                    between=("S = 0.0",), closing=("B(J) = S",),
                    after=("      WRITE(*,*) S, B(1), B(8)",))
        _nest_equiv(src)
        assert _counts(src) == (NEST_STEPS(1) + 8 * 2, 1, 0)

    @pytest.mark.parametrize("stmt", ["E = FX(I) + E + FY(I)",
                                      "E = E + FX(I) + E*0.0"])
    def test_the_accumulator_not_leftmost_refuses(self, stmt):
        src = _chain(stmt)
        _equiv(src)
        assert _launch(src)[:2] == (1, 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(terms=st.lists(st.tuples(st.sampled_from(["+", "-"]),
                                st.sampled_from(["FX(I)", "FY(I)*FY(I)",
                                                 "FX(I)*0.3", "1.0E-3",
                                                 "FY(I)/7.0"])),
                      min_size=1, max_size=4),
       product=st.booleans(), nan=st.booleans())
def test_chained_reductions_agree_with_the_tree(terms, product, nan):
    if product:
        stmt = "E = E" + "".join(f"*(1.0 {op} {t})" for op, t in terms)
    else:
        stmt = "E = E" + "".join(f" {op} {t}" for op, t in terms)
    assume(len(stmt) <= 64)
    _equiv(_chain(stmt, setup=NAN_AT_7 if nan else ()))


def _row_buffer(inner="ROW(J) = X(I)*0.1 + J",
                closing=("F(I) = F(I) + ROW(5)*0.001",), before=(),
                private="PRIVATE(J,ROW)", head=(), call=None):
    """MDG's neighbour table: a private row buffer the inner loop fills
    and the outer body then reads; ROW(3) holds -7.0 beforehand."""
    loop = [
        omp(private),
        "      DO 44 I = 1, 20",
        *("        " + stmt for stmt in before),
        omp(),
        "        DO 42 J = 1, 9",
        f"          {inner}",
        "   42   CONTINUE",
        END,
        *("        " + stmt for stmt in closing),
        "   44 CONTINUE",
        END]
    common = "      COMMON /D/ X(20), F(20), G(20), H(3), ROW(9), Y(9, 20)"
    fill = ["      DO 5 I = 1, 20",
            "        X(I) = I*0.01",
            "        F(I) = 1.0",
            "    5 CONTINUE",
            "      ROW(3) = -7.0"]
    out = "      WRITE(*,*) F(1), F(20), G(1), G(20), ROW(3), ROW(9), I, J"
    if call is None:
        return source("      PROGRAM P", common, *head, *fill, *loop, out,
                      "      END")
    return source("      PROGRAM P", common, *fill, f"      CALL SUB({call})",
                  out, "      END", "      SUBROUTINE SUB(V)", common, *head,
                  *loop, "      END")


class TestPrivateArrays:
    def test_mdg_row_buffer_is_one_launch(self):
        src = _row_buffer()
        profile = _nest_equiv(src)
        launches, bails, kernel, _steps = _launch(src)
        # 20 lanes x (the header, 9 x 2 steps, F(I) and the CONTINUE)
        assert (launches, bails, kernel) == (2, 0, 20 * 3 + 20 * 21)
        # the outer region, and one inner region in each iteration
        outer, = profile.roots
        assert len(outer.costs) == 20 and len(outer.children) == 20

    def test_read_before_written_sees_zeros_and_the_saved_row(self):
        src = _row_buffer(before=("G(I) = ROW(3) + ROW(8)",))
        _nest_equiv(src)
        assert _launch(src)[:2] == (2, 0)
        interp, _ = _compiled(src)
        g1, g20, row3 = interp.output[0].split()[2:5]
        assert (g1, g20, row3) == ("0.0", "-7.0", "3.02")

    def test_a_sibling_loop_reads_the_stores(self):
        # FLO52Q's flux sweep: a second inner loop reads what the first
        # stored, under other keys
        src = _row_buffer(private="PRIVATE(J,ROW,JJ)", closing=(
            "DO 43 JJ = 2, 8",
            "  Y(JJ, I) = ROW(JJ-1) - ROW(JJ+1)*0.5",
            "43 CONTINUE"))
        src = src.replace("        43 CONTINUE", "   43   CONTINUE")
        _nest_equiv(src)
        assert _launch(src)[:2] == (2, 0)

    @pytest.mark.parametrize("inner", ["ROW(J) = X(I) + ROW(J+1)",
                                       "ROW(J+1) = X(I) + ROW(J)*0.0"])
    def test_another_key_in_the_same_loop_refuses(self, inner):
        # J runs to 8 so that ROW(J+1) stays in bounds
        src = _row_buffer(inner=inner).replace("DO 42 J = 1, 9",
                                               "DO 42 J = 1, 8")
        _equiv(src)
        # no launch took the nest: its 20 x 19 steps are not all kernel's
        assert _launch(src)[2] < 20 * 3 + 20 * 19

    @pytest.mark.parametrize("call,head,read", [
        # an argument: V is ROW
        ("ROW", ("      DIMENSION V(9)",), "V(5)"),
        # a COMMON neighbour: V is H, reaching over ROW
        ("H", ("      DIMENSION V(12)",), "V(8)"),
    ], ids=["argument", "common-neighbour"])
    def test_an_overlay_of_the_private_storage_refuses(self, call, head,
                                                       read):
        src = _row_buffer(call=call, head=head,
                          closing=(f"F(I) = F(I) + {read}*0.001",))
        _equiv(src)
        # the nest refuses; each inner loop is a launch of its own
        assert _launch(src)[:2] == (1 + 20, 1)

    def test_a_private_array_of_an_inner_directive_refuses_the_nest(self):
        # each execution of the inner directive privatises ROW anew: the
        # nest refuses, and each inner loop, the root of its own launch,
        # takes its lane copies
        src = _row_buffer(private="PRIVATE(J)").replace(
            omp() + "\n        DO 42", omp("PRIVATE(ROW)") + "\n        DO 42")
        _nest_equiv(src)
        assert _launch(src)[:2] == (1 + 20, 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(outer=st.sampled_from(["1, 20", "20, 1, -1", "2, 19, 3", "4, 7"]),
       inner=st.sampled_from(["1, 9", "2, 8", "9, 1, -2", "3, 3"]),
       read=st.integers(1, 9), saved=st.sampled_from(["0.0", "-7.0", "2.5"]),
       before=st.booleans(), scale=st.sampled_from(["0.1", "(-3.0)"]))
def test_private_arrays_agree_with_the_tree(outer, inner, read, saved,
                                            before, scale):
    src = _row_buffer(inner=f"ROW(J) = X(I)*{scale} + J",
                      closing=(f"F(I) = F(I) + ROW({read})*0.001",),
                      before=("G(I) = ROW(3)",) if before else ())
    src = src.replace("DO 44 I = 1, 20", f"DO 44 I = {outer}").replace(
        "DO 42 J = 1, 9", f"DO 42 J = {inner}").replace(
        "ROW(3) = -7.0", f"ROW(3) = {saved}")
    _equiv(src)


# ---------------------------------------------------------------------------
# what the closures leave to the tree-walker: every case through all three
# modes on both backends, regions included
# ---------------------------------------------------------------------------

#: a COMMON counter FUNCTION NF bumps, so a skipped or repeated call shows
COUNTING = ("      INTEGER FUNCTION NF(N)",
            "      COMMON /C/ CALLS",
            "      CALLS = CALLS + 1",
            "      NF = N",
            "      END")


def _exit_from(jump, nested=False):
    """A directive loop whose iteration ``I = 7, J = 2`` leaves it by
    ``jump`` for label 20 after the loops (``K`` holds 2 there, and ``L``
    label 20), out of a second directive loop over ``J`` when
    ``nested``."""
    inner = [omp("PRIVATE(I,K,L)"),
             "      DO 10 I = 1, 12",
             "        K = 1",
             "        ASSIGN 10 TO L",
             "        IF (I*J .EQ. 14) THEN",
             "          K = 2",
             "          ASSIGN 20 TO L",
             "        END IF",
             "        A(I) = A(I) + I*0.5 + J",
             f"        {jump}",
             "   10 CONTINUE",
             END]
    if nested:
        inner = [omp("PRIVATE(J)"), "      DO 30 J = 1, 3", *inner,
                 "   30 CONTINUE", END]
    else:
        inner = ["      J = 2", *inner]
    return source("      PROGRAM P",
                  "      COMMON /D/ A(12), N",
                  *inner,
                  "   20 N = I*100 + J",
                  "      WRITE(*,*) A(6), A(7), A(8), N",
                  "      END")


#: a local array shaped by a FUNCTION, read in a loop the kernel takes
LAZILY_SHAPED = source("      PROGRAM P",
                       "      COMMON /D/ B(12)",
                       "      DIMENSION W(NF(12))",
                       "      W(1) = 1.0",
                       "      DO 10 I = 1, 12",
                       "        B(I) = W(I) + 1.0",
                       "   10 CONTINUE",
                       "      END",
                       *COUNTING)


def _lazily_shaped(src):
    """``src`` with every dimension ``NF(...)`` made a FUNCTION reference
    by hand: the AST a call in a dimension gives, whatever the frontend
    makes of the declaration (``test_lazily_shaped_array_parsed`` takes
    the frontend's)."""
    program = _program(src)
    for decl in program.main.decls:
        for entity in getattr(decl, "entities", ()):
            for dim in entity.dims or ():
                if isinstance(dim.upper, ast.ArrayRef):
                    dim.upper = ast.FuncRef(dim.upper.name, dim.upper.subs)
    return program


class TestWalkedCode:
    """Cold statements run on ``Interpreter._exec_stmt`` and non-strict
    expressions on ``Interpreter._eval``: the compiled backend must
    agree with the tree-walker on all of them — charges, the jumps a
    walked GOTO takes out of directive bodies, errors and STOP."""

    @pytest.mark.parametrize("nested", [False, True], ids=["one", "two"])
    @pytest.mark.parametrize("jump", ["GOTO (10, 20), K", "GOTO L, (10, 20)"],
                             ids=["computed", "assigned"])
    def test_goto_leaves_directive_bodies(self, jump, nested):
        src = _exit_from(jump, nested)
        # bounded first: a jump taken in the wrong region may never end
        result = CompiledInterpreter(_program(src), max_steps=5_000).run()
        assert result.output[0].split()[-1] == "702.0"
        _equiv(src)

    def test_goto_to_a_label_of_an_enclosing_block(self):
        _equiv(source(
            "      PROGRAM P",
            "      COMMON /D/ A(6), N",
            omp("PRIVATE(I,K)"),
            "      DO 10 I = 1, 6",
            "        K = MOD(I, 3) + 1",
            "        IF (K .GT. 1) THEN",
            "          GOTO (10, 5, 10), K",
            "        END IF",
            "        A(I) = -1.0",
            "    5   A(I) = A(I) + I",
            "   10 CONTINUE",
            END,
            "      N = I",
            "      END"))

    def test_goto_to_a_missing_label_fails_alike(self):
        src = source("      PROGRAM P",
                     "      K = 2",
                     "      GOTO (10, 99), K",
                     "   10 CONTINUE",
                     "      END")
        _equiv(src)
        with pytest.raises(InterpreterError, match="GOTO 99 has no target"):
            CompiledInterpreter(_program(src)).run()

    def test_assign_to_an_array_fails_alike(self):
        src = source("      PROGRAM P",
                     "      DIMENSION L(3)",
                     "      ASSIGN 10 TO L",
                     "   10 CONTINUE",
                     "      END")
        _equiv(src)
        with pytest.raises(InterpreterError, match="ASSIGN target L"):
            CompiledInterpreter(_program(src)).run()

    def test_read_beyond_the_input_fails_alike(self):
        src = source("      PROGRAM P",
                     "      COMMON /D/ X, Y",
                     "      READ(*,*) X",
                     "      READ(*,*) Y",
                     "      END")
        _equiv(src, inputs=[2.5])
        with pytest.raises(InterpreterError, match="READ beyond"):
            CompiledInterpreter(_program(src), inputs=[2.5]).run()

    def test_print_with_a_function_item(self):
        src = source("      PROGRAM P",
                     "      COMMON /C/ CALLS",
                     omp("PRIVATE(I)"),
                     "      DO 10 I = 1, 3",
                     "        PRINT *, I, NF(I*2), CALLS",
                     "   10 CONTINUE",
                     END,
                     "      END",
                     *COUNTING)
        _equiv(src)
        assert CompiledInterpreter(_program(src)).run().output == [
            "1.0 2.0 1.0", "2.0 4.0 2.0", "3.0 6.0 3.0"]

    def test_stop_in_a_function_an_and_condition_calls(self):
        src = source("      PROGRAM P",
                     "      COMMON /D/ A(8)",
                     omp("PRIVATE(I)"),
                     "      DO 10 I = 1, 8",
                     "        A(I) = I",
                     "        IF (I .GT. 2 .AND. HALT(A(I)) .GT. 0.0) THEN",
                     "          A(I) = 0.0",
                     "        END IF",
                     "   10 CONTINUE",
                     END,
                     "      END",
                     "      REAL FUNCTION HALT(X)",
                     "      IF (X .GT. 4.0) THEN",
                     "        STOP 'HALTED'",
                     "      END IF",
                     "      HALT = X",
                     "      END")
        _equiv(src)
        result = CompiledInterpreter(_program(src)).run()
        assert result.stop_message == "HALTED"
        assert result.cost == Interpreter(_program(src)).run().cost

    @pytest.mark.parametrize("cond,calls", [
        ("X .LT. 0.0 .AND. NF(1) .GT. 0", 0),
        ("X .GT. 0.0 .AND. NF(1) .GT. 0", 1),
        ("X .GT. 0.0 .OR. NF(1) .GT. 0", 0),
        ("X .LT. 0.0 .OR. NF(1) .GT. 0", 1)])
    def test_short_circuits_skip_a_function(self, cond, calls):
        src = source("      PROGRAM P",
                     "      COMMON /C/ CALLS",
                     "      COMMON /D/ X, Y",
                     "      X = 1.0",
                     f"      IF ({cond}) THEN",
                     "        Y = 1.0",
                     "      END IF",
                     "      Y = Y + CALLS",
                     "      END",
                     *COUNTING)
        _equiv(src)
        result = CompiledInterpreter(_program(src)).run()
        assert result.commons["C"][0] == calls

    def test_function_in_a_do_bound_and_a_store_subscript(self):
        _equiv(source("      PROGRAM P",
                      "      COMMON /C/ CALLS",
                      "      COMMON /D/ A(12)",
                      omp("PRIVATE(I)"),
                      "      DO 10 I = 1, NF(6)",
                      "        A(NF(I) + 6) = I*0.5",
                      "        A(I) = A(NF(I) + 6) + CALLS",
                      "   10 CONTINUE",
                      END,
                      "      END",
                      *COUNTING))

    def test_lazily_shaped_array_in_a_kernel_loop(self):
        # W(I) is walked (its shape calls NF); the kernel takes the loop
        # anyway and charges its statement by the walked count
        src = LAZILY_SHAPED
        value = ast.BinOp("+", ast.ArrayRef("W", [ast.Var("I")]),
                          ast.RealLit(1.0))
        cc = compiler._Ctx(_lazily_shaped(src).main, True)
        assert compiler.compile_expr(value, cc)[::2] == (None, 4)
        divergence = backend_equivalence(_lazily_shaped(src))
        assert divergence is None, divergence
        interp = CompiledInterpreter(_lazily_shaped(src))
        interp.run()
        assert (interp.kernel_launches, interp.kernel_steps) == (1, 24)

    def test_lazily_shaped_array_parsed(self):
        # the frontend resolves the declaration's NF(12) to a call, as it
        # does in executable statements: the parsed program is the one
        # built by hand above
        program = _program(LAZILY_SHAPED)
        (dim,) = program.main.decls[-1].entities[0].dims
        assert isinstance(dim.upper, ast.FuncRef)
        assert compiler._Ctx(program.main, True).lazy_call_risk("W")
        _equiv(LAZILY_SHAPED)
        interp = CompiledInterpreter(_program(LAZILY_SHAPED))
        interp.run()
        assert (interp.kernel_launches, interp.kernel_steps) == (1, 24)

    def test_private_created_by_the_directive_still_launches(self):
        # T is first touched by the directive's privatisation, which the
        # kernel needs done before it runs
        src = source("      PROGRAM P",
                     "      COMMON /D/ A(12), B(12)",
                     *FILL_A,
                     omp("PRIVATE(I,T)"),
                     "      DO 10 I = 1, 12",
                     "        T = A(I)*2",
                     "        B(I) = T",
                     "   10 CONTINUE",
                     END,
                     "      END")
        _equiv(src)
        interp = _compiled(src)[0]
        assert (interp.kernel_launches, interp.kernel_bails) == (2, 0)


# ---------------------------------------------------------------------------
# lean launches: a subscript's base folded when it is lowered, one shared
# read-only arange per trip count, and one lowering per node of a unit
# ---------------------------------------------------------------------------

#: A and B behind a pad of three cells, K INTEGER, T of rank 3; ID holds
#: 2 and IX(N) holds N.  The fill binds J and L (no launch creates a
#: frame local) and commits in 3 launches
_LEAN_COMMON = ("      COMMON /D/ PAD(3), A(20), B(20), K(20), T(3, 4, 5), "
                "ID, IX(9)")
_LEAN_FILL = ("      J = 0",
              "      L = 0",
              "      DO 1 I = 1, 20",
              "        A(I) = I*0.5",
              "        B(I) = 21 - I",
              "        K(I) = I*3",
              "    1 CONTINUE",
              "      DO 2 I = 1, 9",
              "        IX(I) = I",
              "    2 CONTINUE",
              "      DO 4 M = 1, 4",
              "        DO 3 L = 1, 3",
              "          T(L, M, 5) = L + M*0.25",
              "    3   CONTINUE",
              "    4 CONTINUE",
              "      ID = 2")


def _lean(*body, header="1, 12", loop=None, subs=()):
    """``body`` in ``DO 10 I = header`` (or the lines ``loop``) after the
    fill, then every array's ends and I; ``subs`` are more units."""
    if loop is None:
        loop = (f"      DO 10 I = {header}",
                *("        " + stmt for stmt in body),
                "   10 CONTINUE")
    return source("      PROGRAM P", _LEAN_COMMON, *_LEAN_FILL, *loop,
                  "      WRITE(*,*) A(1), A(12), A(20), B(3), K(1), K(20)",
                  "      WRITE(*,*) T(1, 1, 1), T(3, 4, 5), PAD(2), I",
                  "      END", *subs)


def _lean_launch(src):
    """(launches, refusals) of ``src`` beyond the fill's 3 launches, on
    a run that must agree with the tree-walker's, steps included."""
    _equiv_steps(src)
    launches, bails, _kernel, _steps = _launch(src)
    return launches - 3, bails


class TestLeanLaunch:
    def test_a_view_at_an_offset(self):
        assert _lean_launch(_lean("A(I) = B(I)*2.0 + I")) == (1, 0)

    def test_an_assumed_size_formal_bound_to_an_element(self):
        # DYFESM's FORMP(PE(1,IDE)): the formal's view starts at the
        # element, and only the storage bounds its last dimension
        src = _lean(loop=("      CALL FORMP(T(1, 2, ID))",
                          "      CALL FORMP(IX(5))"),
                    subs=("      SUBROUTINE FORMP(PC)",
                          "      DIMENSION PC(*)",
                          _LEAN_COMMON,
                          "      DO 10 J = 1, 8",
                          "        PC(J) = A(J) + A(J+8)*0.5",
                          "   10 CONTINUE",
                          "      END"))
        # the second call runs past the end of /D/: the storage check
        # refuses that launch, and the walk stores up to its error
        assert _lean_launch(src) == (1, 1)

    def test_a_rank_3_access(self):
        assert _lean_launch(_lean("A(I) = T(3, 4, I) + T(1, 1, I)*0.5",
                                  header="1, 5")) == (1, 0)
        # a nest storing a rank-3 element on both axes
        src = _lean(loop=("      DO 10 J = 1, 4",
                          "        DO 9 L = 1, 3",
                          "          T(L, J, 2) = A(L + 3*J) - J",
                          "    9   CONTINUE",
                          "   10 CONTINUE"))
        assert _lean_launch(src) == (1, 0)

    def test_a_negative_step(self):
        assert _lean_launch(_lean("A(I) = B(13 - I) + I",
                                  "K(2*I - 1) = A(I)*4.0",
                                  header="10, 1, -1")) == (1, 0)

    def test_a_base_with_a_hoisted_atom(self):
        # I + ID and I + IX(3) evaluate once per launch: a base that
        # dropped the atom would read and store two and three cells off
        src = _lean("A(I + ID) = B(I + IX(3))*3.0", "K(I + IX(2)) = ID + I")
        assert _lean_launch(src) == (1, 0)
        interp, _ = _compiled(src)
        assert interp.output[0].split()[:2] == ["0.5", "24.0"]

    def test_an_integer_array(self):
        # the stored values truncate, and the read sees the stored ones
        assert _lean_launch(_lean("K(I) = B(I)*1.5 - I",
                                  "A(I) = K(I)*0.5 + K(20)")) == (1, 0)

    @pytest.mark.parametrize("stmt,header,message", [
        ("A(I + 1) = 2.0*I", "1, 20", "subscript 21 out of bounds"),
        ("A(I) = T(3, I + 1, 1)", "1, 4", "subscript 5 out of bounds"),
        ("T(2, 4 - I/4, I) = A(I)", "1, 5", None)],
        ids=["store", "read", "none"])
    def test_out_of_bounds_only_at_the_last_corner(self, stmt, header,
                                                   message):
        # A(21) is B(1) and T(3,5,1) is T(2,1,2) in storage, and nothing
        # else the loop touches is there: only the dimension's corner
        # check tells them from an element
        src = _lean(stmt, header=header)
        if message is None:
            # I/4 is not affine: the loop is no kernel's
            assert _lean_launch(src) == (0, 0)
            return
        assert _lean_launch(src) == (0, 1)
        tree, compiled = _both(src)
        assert message in tree[0]
        assert tree == compiled

    def test_a_lane_copy(self):
        # ROW lives at an offset in /D/, and Y's base folds per lane
        src = _row_buffer(inner="ROW(J) = X(I)*0.1 + Y(J, I) + J")
        _nest_equiv(src)
        assert _launch(src)[:2] == (2, 0)

    def test_a_stepped_launch(self):
        # D lies behind C, E and PLM in /D/
        src = _stepped("D(I,K) = D(I-1,K)*0.5 + C(I+1,K)",
                       after=("      WRITE(*,*) D(2, 1), D(11, 8), I, K",))
        _nest_equiv(src)
        assert _launch(src)[:2] == (STEPPED_FILL[0] + 1, 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(header=st.sampled_from(["1, 8", "8, 1, -1", "2, 12, 3", "3, 10",
                               "0, 7", "9, 2, -2"]),
       target=st.sampled_from(["A(I)", "A(2*I + 1)", "A(I + ID)", "K(I)",
                               "T(1, 2, I - 3)", "A(14 - I)", "B(IX(4) + I)"]),
       value=st.sampled_from(["B(I)*0.5", "B(I + 1) + T(2, 2, I/I)",
                              "K(I) + B(IX(3))", "I*0.25 - B(ID + I)",
                              "T(3, 1, 5) + A(-I + 15)", "-B(3*I - 2)"]),
       second=st.booleans())
def test_lean_launches_agree_with_the_tree(header, target, value, second):
    # in and out of bounds, at offsets, folded and hoisted bases, both
    # signs of step: commit or refuse, the run is the walk's
    body = [f"{target} = {value}"]
    if second:
        body.append("PAD(2) = PAD(2) + I")
    _equiv_steps(_lean(*body, header=header))


def test_shared_aranges_are_read_only():
    """Every launch of a trip count shares one arange: none may write
    into it, or a launch could change another's offsets."""
    _equiv(_lean("A(I) = B(I)*2.0 + I"))
    assert compiler._ARANGES
    for arange in compiler._ARANGES.values():
        with pytest.raises(ValueError):
            arange[...] = 0


def test_a_lowering_lives_with_its_context():
    """The lowering memo belongs to one unit's context: the same node
    object means what each unit's declarations make of it."""
    lazy = _lazily_shaped(LAZILY_SHAPED).main
    plain = _program(LAZILY_SHAPED.replace("W(NF(12))", "W(12)")).main
    node = ast.ArrayRef("W", (ast.Var("I"),))
    for unit, strict in ((lazy, False), (plain, True), (lazy, False)):
        cc = compiler._Ctx(unit, True)
        assert (cc.lower(node)[0] is not None) is strict
        assert cc.lower(node) is cc.lower(node)
    param = _program(source("      SUBROUTINE S", "      PARAMETER (N = 3)",
                            "      END")).units[0]
    for unit, value in ((param, 3.0), (plain, None)):
        pure = compiler._Ctx(unit, True).lower(ast.Var("N"))[0]
        frame = mock.Mock(parameters={"N": 3.0}, vars={})
        ex = mock.Mock(_local=mock.Mock(side_effect=LookupError))
        if value is None:
            with pytest.raises(LookupError):
                pure(ex, frame)
        else:
            assert pure(ex, frame) == value


def test_each_unit_lowers_each_node_once(monkeypatch):
    """One lowering per node and context over the units of the 12
    PERFECT programs under the three configurations, directives honoured
    and not: the scalar path, the kernels, their hoisted operands and
    node counts share it (every kernel lowered too, as a run would)."""
    from repro.experiments.pipeline import Config, run_config
    lowered = []
    real = compiler.compile_expr

    def counting(e, cc):
        lowered.append((id(cc), id(e)))
        return real(e, cc)
    monkeypatch.setattr(compiler, "compile_expr", counting)
    units = {}
    for bench in all_benchmarks():
        for config in CONFIGS:
            for unit in run_config(bench, Config(config)).program.units:
                for honor in (True, False):
                    units.setdefault((compiler._unit_digest(unit), honor),
                                     (unit, honor))
    kernels, contexts = 0, []  # kept alive: a context's id is its own
    for unit, honor in units.values():
        cc = compiler._Ctx(unit, honor)
        contexts.append(cc)
        compiler._compile_block(cc, compiler._Region(), unit.body)
        for s in ast.walk_stmts(unit.body):
            if isinstance(s, ast.DoLoop):
                kernels += compiler._try_vectorize(s, cc) is not None
    assert len(lowered) == len(set(lowered))
    assert (len(units), len(lowered), kernels) == (104, 4202, 376)
