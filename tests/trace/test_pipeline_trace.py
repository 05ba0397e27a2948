"""End-to-end trace guarantees: the decision records a traced pipeline
run emits must reproduce Table II's parallel-loop counts exactly, for
any worker count, and the exported trace must be loadable Chrome JSON.
"""

import pytest

from repro.experiments import figure20, pipeline
from repro.experiments.table2 import table2_rows
from repro.perfect import get_benchmark, suite
from repro.trace import Tracer, count_parallel, validate_chrome_trace

BENCHES = ("adm", "qcd")
CONFIG_KINDS = ("none", "conventional", "annotation")


def _clear_caches():
    suite.clear_program_cache()
    pipeline.clear_base_cache()
    figure20.clear_pipeline_cache()


@pytest.mark.parametrize("jobs", [1, 2])
def test_decision_counts_match_table2(jobs):
    _clear_caches()
    benchmarks = [get_benchmark(n) for n in BENCHES]
    tracer = Tracer(label="test")
    rows = table2_rows(benchmarks=benchmarks, jobs=jobs, tracer=tracer)
    counts = count_parallel(tracer.decisions)
    for row in rows:
        for kind in CONFIG_KINDS:
            assert counts.get((row.benchmark, kind), 0) \
                == row.configs[kind].par_loops, \
                f"{row.benchmark}/{kind} (jobs={jobs})"
    assert validate_chrome_trace(tracer.to_chrome()) == []


def test_phase_spans_cover_the_pipeline():
    _clear_caches()
    tracer = Tracer(label="test")
    table2_rows(benchmarks=[get_benchmark("adm")], jobs=1, tracer=tracer)
    names = {e["name"] for e in tracer.to_chrome()["traceEvents"]
             if e["ph"] == "X"}
    for phase in ("pipeline", "parse", "clone", "normalize", "summaries",
                  "dependence", "inline", "reverse"):
        assert any(n == phase or n.startswith(phase) for n in names), phase


def test_untraced_run_records_nothing():
    _clear_caches()
    rows = table2_rows(benchmarks=[get_benchmark("adm")], jobs=1)
    assert rows[0].configs["annotation"].par_loops > 0
