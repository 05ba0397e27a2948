"""Micro-benchmarks of the compiler components (frontend, dependence
tester, inliners, interpreter) on realistic inputs."""

import glob
import os

import pytest

from repro.analysis.affine import extract
from repro.analysis.dependence import DependenceTester, LoopCtx
from repro.annotations import AnnotationInliner, ReverseInliner
from repro.fortran.lexer import tokenize
from repro.fortran.parser import (parse_expression, parse_source,
                                  parse_source_tolerant)
from repro.fortran.source import condense, read_logical_lines
from repro.fortran.unparser import unparse
from repro.perfect import get_benchmark
from repro.polaris import Polaris
from repro.program import Program
from repro.runtime import Interpreter


@pytest.fixture(scope="module")
def dyfesm_source():
    return "\n".join(get_benchmark("dyfesm").sources.values())


def test_parse_speed(benchmark, dyfesm_source):
    tree = benchmark(parse_source, dyfesm_source)
    assert tree.units


def test_tolerant_parse_speed(benchmark):
    # the user-facing path: the 23 dialect programs, recovery included
    corpus = os.path.join(os.path.dirname(__file__), "..", "tests",
                          "fortran", "corpus", "*.f")
    files = []
    for path in sorted(glob.glob(corpus)):
        with open(path, encoding="utf-8") as fh:
            files.append((os.path.basename(path), fh.read()))
    assert len(files) == 23

    def parse_all():
        return [parse_source_tolerant(text, name) for name, text in files]

    parsed = benchmark(parse_all)
    assert all(tree.units for tree, _diagnostics in parsed)


def test_tokenize_speed(benchmark, dyfesm_source):
    # the lexer alone, on every card of DYFESM (condensed once, outside)
    cards = [condense(line.text)
             for line in read_logical_lines(dyfesm_source)]

    def tokenize_all():
        return sum(len(tokenize(card)) for card in cards)

    assert benchmark(tokenize_all) > 4 * len(cards)


def test_program_clone_speed(benchmark):
    # the copying kernel (ast.clone) on the nine-unit program
    program = get_benchmark("dyfesm").program()
    twin = benchmark(program.clone)
    assert len(twin.units) == 9 and twin.files == program.files


def test_unparse_roundtrip_speed(benchmark, dyfesm_source):
    tree = parse_source(dyfesm_source)
    text = benchmark(unparse, tree)
    assert "PROGRAM DYFESM" in text


def test_dependence_tester_speed(benchmark):
    tester = DependenceTester()
    loops = [LoopCtx("K", 1, 100), LoopCtx("J", 1, 16)]
    a = [extract(parse_expression("J"), ["K", "J"]),
         extract(parse_expression("64*IB+K"), ["K", "J"])]
    dirs = {"K": "<", "J": "*"}

    def run_many():
        hits = 0
        for _ in range(500):
            if tester.may_depend(a, a, loops, dirs):
                hits += 1
        return hits

    assert benchmark(run_many) == 0  # all independent


def test_polaris_speed(benchmark):
    bench = get_benchmark("arc2d")

    def analyze():
        prog = bench.program()
        return Polaris().run(prog)

    report = benchmark(analyze)
    assert report.verdicts


def test_annotation_roundtrip_speed(benchmark):
    bench = get_benchmark("dyfesm")
    registry = bench.registry()

    def roundtrip():
        prog = bench.program()
        AnnotationInliner(registry).run(prog)
        Polaris().run(prog)
        return ReverseInliner(registry).run(prog)

    rev = benchmark(roundtrip)
    assert rev.reversed_count == 2  # one FSMP site + one ASSEM site


def test_interpreter_speed(benchmark):
    prog = get_benchmark("flo52q").program()

    def execute():
        return Interpreter(prog).run()

    result = benchmark(execute)
    assert result.output


def _honoured_execution(benchmark, name, config):
    """Time one compiled execution, directives honoured, of a PERFECT
    benchmark's optimised program; the interpreter that ran it."""
    from repro.experiments.pipeline import Config, run_config
    from repro.runtime.backend import make_interpreter
    bench = get_benchmark(name)
    program = run_config(bench, Config(config)).program

    def execute():
        interp = make_interpreter(program, "compiled",
                                  inputs=list(bench.inputs))
        interp.run()
        return interp

    return benchmark(execute)


def test_directive_kernel_speed(benchmark):
    """One execution of SPEC77's ``annotation`` program with directives
    honoured — Figure 20's longest: 96 % of its 262 272 statement steps
    sit in directive loops the vector kernel commits."""
    interp = _honoured_execution(benchmark, "spec77", "annotation")
    assert interp.kernel_steps > 0.95 * interp.steps


def test_invariant_operand_kernel_speed(benchmark):
    """One execution of BDNA's ``none`` program: 28 800 of its 38 875
    steps sit in ``PCINIT``'s loop, which the kernel takes because
    ``TSTEP**2/2.0`` is loop-invariant (6 ms; 110 ms on scalar
    closures)."""
    interp = _honoured_execution(benchmark, "bdna", "none")
    assert interp.kernel_steps > 0.94 * interp.steps


def test_nest_kernel_speed(benchmark):
    """One execution of SPEC77's ``none`` program: ``SYNTH``'s row
    reduction — 64 inner loops, 24 times — is one launch a call, 27
    launches in all (1 585 while a launch was one inner loop)."""
    interp = _honoured_execution(benchmark, "spec77", "none")
    assert interp.kernel_launches < 100


def test_leaf_pricing_speed(benchmark):
    """One ``price`` of that execution's profile: 1 585 leaf region
    executions over three cost vectors, each priced once per nesting
    level."""
    from repro.experiments.pipeline import Config, run_config
    from repro.experiments.tuning import record_profile
    from repro.runtime.machine import INTEL_MAC, price
    bench = get_benchmark("spec77")
    profile = record_profile(run_config(bench, Config("none")).program,
                             bench.inputs)
    cost, stats = benchmark(lambda: price(profile, INTEL_MAC))
    assert cost < profile.work and stats


def test_table2_pipeline_speed(benchmark):
    """End-to-end Table II generation (all 12 benchmarks x 3 configs),
    cold caches each round so the number tracks the full pipeline cost
    across PRs.  Honors REPRO_JOBS, so a multicore host can benchmark
    the parallel executor path too."""
    from repro.experiments import pipeline
    from repro.experiments.table2 import render_table2, table2_rows
    from repro.perfect import suite

    def full_table():
        suite.clear_program_cache()
        pipeline.clear_base_cache()
        return render_table2(table2_rows())

    text = benchmark(full_table)
    assert "TABLE II" in text and "TOTAL" in text


def test_table2_pipeline_speed_warm_cache(benchmark):
    """Same pipeline with warm parse/base caches: the steady-state cost
    a long-running service would pay per Table II regeneration."""
    from repro.experiments.table2 import render_table2, table2_rows

    text = benchmark(lambda: render_table2(table2_rows()))
    assert "TABLE II" in text
