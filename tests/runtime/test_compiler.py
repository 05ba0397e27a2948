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

import numpy as np
import pytest

from repro.perfect import all_benchmarks, get_benchmark
from repro.program import Program
from repro.runtime import CompiledInterpreter, Interpreter
from repro.runtime.backend import (BACKEND_ENV, BACKENDS, default_backend,
                                   make_interpreter)
from repro.runtime.compiler import clear_compile_cache, compile_cache_info
from repro.runtime.interpreter import collect_omp_sites
from repro.runtime.difftest import backend_equivalence
from repro.runtime.interpreter import outputs_equal
from repro.runtime.machine import INTEL_MAC

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
    divergence = backend_equivalence(program, INTEL_MAC, bench.inputs)
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
    divergence = backend_equivalence(prog, INTEL_MAC, inputs or [])
    assert divergence is None, divergence


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
