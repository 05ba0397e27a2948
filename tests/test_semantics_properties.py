"""Hypothesis properties over *executable* random programs.

These are the strongest guarantees in the suite: for randomly generated
Fortran kernels,

1. the normalization passes preserve semantics (full-memory comparison);
2. conventional inlining preserves semantics;
3. whatever the parallelizer marks parallel survives the three-way
   differential test (in-order and permuted parallel == serial);
4. unparse/reparse at any pipeline stage changes nothing.

The program strategies live in :mod:`tests.strategies`, built on the
shared program-building primitives of :mod:`repro.fuzz.generator`:
a PROGRAM with COMMON arrays, bounded loops, and subscripts constructed
to stay in bounds, so every generated program executes without faults.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.analysis.normalize import normalize_unit
from repro.fortran.unparser import unparse
from repro.inlining import ConventionalInliner
from repro.polaris import Polaris
from repro.program import Program
from repro.runtime import Interpreter, diff_test
from tests.strategies import callee_programs, programs


def run_memory(program: Program):
    return Interpreter(program, honor_directives=False).run()


@given(programs(with_induction=True))
@settings(max_examples=40, deadline=None)
def test_normalization_preserves_semantics(program):
    before = run_memory(program)
    unit = program.units[0]
    normalize_unit(unit)
    program.invalidate()
    after = run_memory(program)
    assert before.memory_equal(after)


@given(programs())
@settings(max_examples=30, deadline=None)
def test_parallelization_is_sound(program):
    Polaris().run(program)
    result = diff_test(program)
    assert result.passed, result.explain()


@given(programs(with_induction=True))
@settings(max_examples=25, deadline=None)
def test_unparse_reparse_preserves_semantics(program):
    before = run_memory(program)
    text = unparse(program.files[0])
    reparsed = Program.from_source(text)
    after = run_memory(reparsed)
    assert before.memory_equal(after)


# ---------------------------------------------------------------------------
# conventional inlining preserves semantics
# ---------------------------------------------------------------------------


@given(callee_programs())
@settings(max_examples=30, deadline=None)
def test_conventional_inlining_preserves_semantics(program):
    before = run_memory(program)
    result = ConventionalInliner().run(program)
    after = run_memory(program)
    assert before.memory_equal(after), \
        f"inlining changed semantics (inlined {result.inlined_count})"
    # and the inlined program still unparses/reparses cleanly
    text = "".join(program.unparse().values())
    assert run_memory(Program.from_source(text)).memory_equal(before)
