"""Regenerates Figure 20: tuned speedups per benchmark x machine x
configuration on the simulated Intel Mac (8 threads) and AMD Opteron
(4 threads).

The timed section measures the protocol (pipeline, one profiled
execution per configuration, tuning priced from it) on one application;
the full figure is produced once and written to
``benchmarks/out/figure20.txt``.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.figure20 import (clear_pipeline_cache, figure20_all,
                                        figure20_cells, render_figure20)
from repro.perfect import get_benchmark
from repro.runtime.machine import INTEL_MAC


@pytest.fixture(scope="module")
def cells():
    return figure20_all()


def test_figure20_generation(cells, out_dir, benchmark):
    text = benchmark(render_figure20, cells)
    emit(out_dir, "figure20.txt", text)
    assert len(cells) == 12 * 2 * 3


def test_figure20_shape_claims(cells, benchmark):
    by_key = benchmark(lambda: {(c.benchmark, c.machine, c.config): c
                                for c in cells})
    benchmarks = {c.benchmark for c in cells}
    machines = {c.machine for c in cells}
    ann_total = conv_total = none_total = 0.0
    for b in benchmarks:
        for m in machines:
            none = by_key[(b, m, "none")].speedup
            conv = by_key[(b, m, "conventional")].speedup
            ann = by_key[(b, m, "annotation")].speedup
            none_total += none
            conv_total += conv
            ann_total += ann
            # annotation-based inlining achieves the best performance
            # (paper Section IV-B); per-cell we allow 5% measurement
            # granularity (an inlined body dodges call overhead, which is
            # exactly the within-noise variation the paper's bars show)
            assert ann >= none * 0.95, (b, m, ann, none)
            assert ann >= conv * 0.95, (b, m, ann, conv)
            # tuning never leaves the program slower than serial
            assert ann >= 0.999
    # the aggregate claim is strict: annotation wins suite-wide
    assert ann_total > conv_total
    assert ann_total > none_total


def test_tuning_prevents_slowdowns(cells, benchmark):
    benchmark(lambda: [c.tuning.speedup for c in cells])
    # the untuned programs often run SLOWER than serial (the paper's
    # motivation for the empirical tuning step); tuned never do
    untuned_slowdowns = sum(1 for c in cells
                            if c.tuning.untuned_speedup < 0.999)
    assert untuned_slowdowns > 0
    assert all(c.speedup >= 0.999 for c in cells)


def test_tuning_speed(benchmark):
    bench = get_benchmark("adm")

    def tune_adm():
        # the profiles live in the pipeline cache: against a warm one
        # this would time three dict lookups and their pricing
        clear_pipeline_cache()
        return figure20_cells(bench, machines=[INTEL_MAC])

    cells = benchmark(tune_adm)
    assert len(cells) == 3
