"""Execute once, price many: the Figure 20 protocol's execution budget.

One distinct optimised program — the unparsed text the pipeline emits,
with its inputs — is executed once per process, by the first cell that
needs it, and every cost of every cell over that text (both machines,
and every configuration that emits it) is priced from that execution's
region profile, which lives and dies with the pipeline cache.
"""

import os
import random

import pytest

from repro.experiments import figure20
from repro.experiments.figure20 import (MACHINES, Figure20Task,
                                        clear_pipeline_cache, figure20_all,
                                        render_figure20, run_cell_task)
from repro.experiments.pipeline import CONFIGS, Config, run_config
from repro.experiments.tuning import decide, record_profile, tune
from repro.obs import metrics as obs_metrics
from repro.perfect import all_benchmarks, get_benchmark
from repro.perfect.suite import Benchmark
from repro.runtime.interpreter import number_omp_sites
from repro.runtime.machine import RegionProfile

FIGURE20_TXT = os.path.join(os.path.dirname(__file__), "..", "..",
                            "benchmarks", "out", "figure20.txt")


def executions() -> float:
    """Interpreters constructed so far (every backend)."""
    return sum(obs_metrics.get_registry().to_json().get(
        "repro_runtime_exec_total", {}).values())


def summary(cell):
    t = cell.tuning
    return (cell.benchmark, cell.machine, cell.config, t.serial_cost,
            t.initial_cost, t.tuned_cost, tuple(t.disabled), tuple(t.kept))


class TestTuneWithAndWithoutProfile:
    @pytest.mark.parametrize("name", ["bdna", "trfd"])
    def test_same_result_same_mutation(self, name):
        bench = get_benchmark(name)
        program = run_config(bench, Config("annotation")).program
        profile = record_profile(program, bench.inputs)
        assert isinstance(profile, RegionProfile)
        for machine in MACHINES:
            made, taken = program.clone(), program.clone()
            before = executions()
            without = tune(made, machine, bench.inputs)
            assert executions() - before == 1
            supplied = tune(taken, machine, bench.inputs, profile=profile)
            assert executions() - before == 1  # priced, not executed
            assert without == supplied
            assert without.disabled  # the mutation below is a real one
            assert made.unparse() == taken.unparse()
            assert made.unparse() != program.unparse()


    @pytest.mark.parametrize("name", ["adm", "arc2d", "spec77"])
    def test_the_decision_edits_nothing(self, name):
        """``decide`` is ``tune`` without the edit: the same result —
        labels in the same order, nested directives disabled in a later
        round included — on a program it leaves as it found it, and the
        sites it names are the directives ``tune`` replaces."""
        bench = get_benchmark(name)
        program = run_config(bench, Config("annotation")).program
        profile = record_profile(program, bench.inputs)
        text = program.unparse()
        for machine in MACHINES:
            decided, off = decide(program, machine, bench.inputs,
                                  profile=profile)
            assert program.unparse() == text
            edited = program.clone()
            site_of = number_omp_sites(edited)
            assert tune(edited, machine, bench.inputs,
                        profile=profile) == decided
            assert len(off) == len(decided.disabled) > 0
            assert {site_of[key] for key in number_omp_sites(edited)} \
                == set(site_of.values()) - off


#: the configurations of each benchmark that emit one program text
#: (every other (benchmark, configuration) emits a text of its own)
SHARED_TEXTS = {
    "ADM": [{"none", "conventional"}],
    "MG3D": [{"none", "conventional"}],
    "SPEC77": [{"none", "annotation"}],
    "FLO52Q": [set(CONFIGS)],
    "MDG": [set(CONFIGS)],
    "QCD": [set(CONFIGS)],
    "TRACK": [set(CONFIGS)],
}


def text_groups(bench):
    """The configurations of ``bench`` grouped by emitted program text."""
    by_text = {}
    for kind in CONFIGS:
        by_text.setdefault(run_config(bench, Config(kind)).output,
                           set()).add(kind)
    return list(by_text.values())


def sibling_benchmarks(source, first_inputs, second_inputs):
    """Two benchmarks (two pipeline-cache keys) over one source text."""
    return [Benchmark(name, "", {"main.f": source}, inputs=inputs)
            for name, inputs in (("FIRST", first_inputs),
                                 ("SECOND", second_inputs))]


READS_ITS_INPUT = ("      PROGRAM P\n"
                   "      COMMON /OUT/ A(8)\n"
                   "      READ(*,*) X\n"
                   "      DO 10 I = 1, 8\n"
                   "      A(I) = X * I\n"
                   "   10 CONTINUE\n"
                   "      END\n")


class TestExecutionBudget:
    def test_one_execution_per_distinct_program(self):
        """25 executions for 72 cells from cleared caches, in the
        canonical order and in a shuffled one, with the same cells —
        the committed Figure 20, bit for bit."""
        clear_pipeline_cache()
        before = executions()
        cells = figure20_all()
        assert executions() - before == 25
        with open(FIGURE20_TXT, encoding="utf-8") as fh:
            assert render_figure20(cells) + "\n" == fh.read()

        tasks = [Figure20Task(b, m, kind) for b in all_benchmarks()
                 for m in MACHINES for kind in CONFIGS]
        random.Random(20).shuffle(tasks)
        clear_pipeline_cache()
        before = executions()
        shuffled = [run_cell_task(t) for t in tasks]
        assert executions() - before == 25
        assert sorted(map(summary, shuffled)) == sorted(map(summary, cells))

    def test_which_configurations_share_a_program(self):
        """The 25 is these groups, not a number: a change to a PERFECT
        source or to a pass shows up here as a changed group."""
        distinct = 0
        for bench in all_benchmarks():
            groups = text_groups(bench)
            shared = [g for g in groups if len(g) > 1]
            assert shared == SHARED_TEXTS.get(bench.name, []), bench.name
            distinct += len(groups)
        assert distinct == 25

    def test_profile_lives_and_dies_with_the_pipeline_cache(self):
        bench = get_benchmark("qcd")
        first, second = (Figure20Task(bench, m, "none") for m in MACHINES)
        clear_pipeline_cache()
        before = executions()
        cold = run_cell_task(first)
        assert executions() - before == 1
        assert "profile" in cold.timings and "price" in cold.timings
        warm = run_cell_task(second)
        assert executions() - before == 1  # a clone plus arithmetic
        assert set(warm.timings) == {"price"}
        (_result, profile), = figure20._PIPELINE_CACHE.values()
        assert isinstance(profile, RegionProfile)
        assert list(figure20._PROFILE_CACHE.values()) == [profile]

        clear_pipeline_cache()
        assert figure20._PIPELINE_CACHE == {}
        assert figure20._PROFILE_CACHE == {}
        again = run_cell_task(second)
        assert executions() - before == 2  # nothing survived the clear
        assert summary(again) == summary(warm)

    def test_same_text_books_its_pipeline_and_no_execution(self):
        """QCD emits one text under all three configurations: the second
        configuration's cell runs (and books) its own pipeline, finds the
        text executed, and books the lookup as its ``profile``."""
        bench = get_benchmark("qcd")
        clear_pipeline_cache()
        before = executions()
        ran = run_cell_task(Figure20Task(bench, MACHINES[0], "none"))
        assert executions() - before == 1
        found = run_cell_task(Figure20Task(bench, MACHINES[0], "annotation"))
        assert executions() - before == 1
        # its own pipeline (annotation adds inline/reverse), a lookup
        # booked as 'profile' (~0 s), and the pricing
        assert set(found.timings) == set(ran.timings) | {"inline", "reverse"}
        assert len(figure20._PIPELINE_CACHE) == 2
        assert len(figure20._PROFILE_CACHE) == 1
        other = run_cell_task(Figure20Task(bench, MACHINES[1], "annotation"))
        assert set(other.timings) == {"price"}
        assert executions() - before == 1
        clear_pipeline_cache()

    def test_equal_text_different_inputs_do_not_share(self):
        def run(first_inputs, second_inputs):
            clear_pipeline_cache()
            before = executions()
            cells = [run_cell_task(Figure20Task(b, MACHINES[0], "none"))
                     for b in sibling_benchmarks(READS_ITS_INPUT,
                                                 first_inputs, second_inputs)]
            return cells, executions() - before

        _cells, ran = run((1.0,), (2.0,))
        assert ran == 2 and len(figure20._PROFILE_CACHE) == 2
        (one, two), ran = run((1.0,), (1.0,))
        assert ran == 1 and len(figure20._PROFILE_CACHE) == 1
        assert len(figure20._PIPELINE_CACHE) == 2
        assert summary(one)[3:] == summary(two)[3:]
        clear_pipeline_cache()
