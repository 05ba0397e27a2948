"""Ablation benches for the design choices DESIGN.md calls out.

1. conventional-inlining size threshold (more inlining => more growth,
   never fewer losses);
2. the ``unique`` base (must exceed inner subscript ranges);
3. the dependence-test family (GCD-only is sound but strictly weaker);
4. machine fork overhead (higher overhead => tuning disables more loops).
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.executor import run_tasks
from repro.experiments.pipeline import Config, prepare_base, run_config
from repro.experiments.reporting import text_table
from repro.experiments.tuning import tune
from repro.inlining.heuristics import InlinePolicy
from repro.annotations.translate import TranslateOptions
from repro.perfect import get_benchmark
from repro.polaris import PolarisOptions
from repro.polaris.report import ConfigComparison
from repro.runtime.machine import MachineModel


def comparison(bench, config, base=None):
    base = base if base is not None else prepare_base(bench)
    none = run_config(bench, Config("none", config.polaris), base)
    result = run_config(bench, config, base)
    return ConfigComparison.against_baseline(
        none.parallel_origins(), result.parallel_origins()), result


# -- executor work units (module-level so they pickle into pool workers) --

def _threshold_case(task):
    """One conventional-inlining run at a given size threshold."""
    name, threshold = task
    bench = get_benchmark(name)
    cfg = Config("conventional",
                 inline_policy=InlinePolicy(max_statements=threshold))
    cmp_, result = comparison(bench, cfg)
    return [threshold, result.conventional_result.inlined_count,
            cmp_.par_loss, result.code_lines]


def _dependence_origins(task):
    """Parallel origins of a no-inlining run with/without Banerjee."""
    name, use_banerjee = task
    bench = get_benchmark(name)
    result = run_config(bench, Config(
        "none", PolarisOptions(use_banerjee=use_banerjee)))
    return frozenset(result.parallel_origins())


class TestInlineThresholdAblation:
    def test_threshold_sweep(self, out_dir, benchmark):
        bench = get_benchmark("mdg")  # its INTERF has ~157 statements
        benchmark(prepare_base, bench)
        rows = run_tasks(_threshold_case,
                         [("mdg", t) for t in (50, 150, 400)])
        emit(out_dir, "ablation_threshold.txt", text_table(
            ["max stmts", "#inlined", "#par-loss", "lines"], rows,
            title="ABLATION: conventional inlining size threshold (MDG)"))
        # the default threshold excludes INTERF; raising it inlines INTERF
        # and blows the code up without gaining parallel loops
        assert rows[1][1] == 0
        assert rows[2][1] >= 1
        assert rows[2][3] > rows[1][3] * 1.5

    def test_threshold_timing(self, benchmark):
        bench = get_benchmark("mdg")
        base = prepare_base(bench)
        cfg = Config("conventional",
                     inline_policy=InlinePolicy(max_statements=400))
        benchmark(lambda: run_config(bench, cfg, base))


class TestUniqueBaseAblation:
    @pytest.mark.parametrize("base_value,expect_parallel", [
        (4, False),    # not injective over the 1..40 inner range
        (64, True),
        (1024, True),
    ])
    def test_unique_base(self, base_value, expect_parallel, benchmark):
        bench = benchmark(get_benchmark, "trfd")
        cfg = Config("annotation",
                     translate=TranslateOptions(unique_base=base_value))
        cmp_, result = comparison(bench, cfg)
        orbital = [v for v in result.report.verdicts
                   if v.unit == "TRFD" and v.var == "MI"]
        assert orbital
        assert orbital[0].parallelized == expect_parallel

    def test_unique_base_report(self, out_dir, benchmark):
        rows = []
        for base_value in (4, 16, 64, 256, 1024):
            bench = benchmark.pedantic(get_benchmark, args=("trfd",),
                                       rounds=1) \
                if base_value == 4 else get_benchmark("trfd")
            cfg = Config("annotation",
                         translate=TranslateOptions(unique_base=base_value))
            cmp_, _ = comparison(bench, cfg)
            rows.append([base_value, cmp_.par_extra])
        emit(out_dir, "ablation_unique_base.txt", text_table(
            ["unique base", "#par-extra (TRFD)"], rows,
            title="ABLATION: unique() lowering base "
                  "(injectivity over inner ranges required)"))


class TestDependenceTestAblation:
    def test_gcd_only_weaker(self, out_dir, benchmark):
        rows = []
        total_full = total_gcd = 0
        benchmark.pedantic(prepare_base,
                           args=(get_benchmark("flo52q"),), rounds=1)
        names = ("dyfesm", "arc2d", "bdna", "flo52q")
        tasks = [(name, use_banerjee)
                 for name in names for use_banerjee in (True, False)]
        origins = dict(zip(tasks, run_tasks(_dependence_origins, tasks)))
        for name in names:
            full = origins[(name, True)]
            gcd = origins[(name, False)]
            nf, ng = len(full), len(gcd)
            rows.append([name.upper(), nf, ng])
            total_full += nf
            total_gcd += ng
            # GCD-only must be conservative: never parallelize more
            assert gcd <= full
        emit(out_dir, "ablation_dependence.txt", text_table(
            ["benchmark", "#par (full tests)", "#par (GCD only)"], rows,
            title="ABLATION: dependence test family"))
        assert total_gcd < total_full

    def test_dependence_timing(self, benchmark):
        bench = get_benchmark("arc2d")
        base = prepare_base(bench)
        benchmark(lambda: run_config(
            bench, Config("none", PolarisOptions(use_banerjee=True)), base))


class TestOverheadSensitivity:
    def test_fork_overhead_sweep(self, out_dir, benchmark):
        bench = get_benchmark("bdna")
        base = prepare_base(bench)
        result = benchmark.pedantic(
            run_config, args=(bench, Config("annotation"), base), rounds=1)
        rows = []
        prev_disabled = -1
        for overhead in (200.0, 2000.0, 20000.0):
            machine = MachineModel("sweep", threads=8,
                                   fork_join_overhead=overhead)
            tuning = tune(result.program.clone(), machine, bench.inputs)
            rows.append([int(overhead), len(tuning.disabled),
                         f"{tuning.speedup:.3f}"])
            assert len(tuning.disabled) >= prev_disabled
            prev_disabled = len(tuning.disabled)
        emit(out_dir, "ablation_overhead.txt", text_table(
            ["fork overhead", "#disabled", "tuned speedup"], rows,
            title="ABLATION: machine fork/join overhead vs tuning (BDNA)"))
