"""Execute once, price many: the Figure 20 protocol's execution budget.

One (benchmark, configuration) is executed once per process — by the
first of its cells — and every cost of both machines' cells is priced
from that execution's region profile, which lives and dies with the
``_PIPELINE_CACHE`` entry.
"""

import os
import random

import pytest

from repro.experiments import figure20
from repro.experiments.figure20 import (MACHINES, Figure20Task,
                                        clear_pipeline_cache, figure20_all,
                                        render_figure20, run_cell_task)
from repro.experiments.pipeline import CONFIGS, Config, run_config
from repro.experiments.tuning import record_profile, tune
from repro.obs import metrics as obs_metrics
from repro.perfect import all_benchmarks, get_benchmark
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


class TestExecutionBudget:
    def test_one_execution_per_benchmark_and_configuration(self):
        """36 executions for 72 cells from cleared caches, in the
        canonical order and in a shuffled one, with the same cells —
        the committed Figure 20, bit for bit."""
        clear_pipeline_cache()
        before = executions()
        cells = figure20_all()
        assert executions() - before == 36
        with open(FIGURE20_TXT, encoding="utf-8") as fh:
            assert render_figure20(cells) + "\n" == fh.read()

        tasks = [Figure20Task(b, m, kind) for b in all_benchmarks()
                 for m in MACHINES for kind in CONFIGS]
        random.Random(20).shuffle(tasks)
        clear_pipeline_cache()
        before = executions()
        shuffled = [run_cell_task(t) for t in tasks]
        assert executions() - before == 36
        assert sorted(map(summary, shuffled)) == sorted(map(summary, cells))

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

        clear_pipeline_cache()
        assert figure20._PIPELINE_CACHE == {}
        again = run_cell_task(second)
        assert executions() - before == 2  # nothing survived the clear
        assert summary(again) == summary(warm)
