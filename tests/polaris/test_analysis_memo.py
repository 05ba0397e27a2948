"""The per-unit analysis memo a stamped base carries.

Every configuration cloned from one base must analyze exactly as if the
memo did not exist: whichever configuration runs first, traced or not,
whatever a caller does to a returned program, under other options, and
with demand inlining (which bypasses the memo).  The reference run of
each configuration starts from a clone of the base with the memo
detached.
"""

import itertools

import pytest

from repro.experiments.pipeline import (CONFIGS, Config, clear_base_cache,
                                        prepare_base, run_config)
from repro.fortran import ast
from repro.obs import metrics as obs_metrics
from repro.perfect import all_benchmarks, get_benchmark
from repro.perfect.suite import Benchmark
from repro.polaris import PolarisOptions
from repro.trace import Tracer

BENCHMARKS = [b.name for b in all_benchmarks()]

#: MAIN's loop calls A, A calls B, and B prints: A is impure, unless the
#: annotation (B has no effect) is inlined into A.  MAIN itself is left
#: untouched by every inliner, so only its callee's purity separates its
#: analysis under ``annotation`` from the one under ``none``.
PURITY = Benchmark("purity", "", {"purity.f": """\
      PROGRAM MAIN
      REAL X(100)
      DO 10 I = 1, 100
        X(I) = I * 2.0
        CALL A(I)
   10 CONTINUE
      END
      SUBROUTINE A(K)
      CALL B(K)
      END
      SUBROUTINE B(N)
      WRITE(*,*) N
      END
"""}, annotations="subroutine b(n) { }")


def _record(result, tracer):
    return {
        "decisions": [d.to_dict() for d in result.report.verdicts],
        "test_stats": dict(result.report.test_stats),
        "traced": [d.to_dict() for d in tracer.decisions] if tracer else [],
        "output": result.output,
        "parallel_origins": sorted(result.parallel_origins()),
    }


def _run(bench, config, base, traced):
    tracer = Tracer(label="memo") if traced else None
    return _record(run_config(bench, config, base, tracer=tracer), tracer)


def _memo_free(bench, config, traced=False):
    base = prepare_base(bench).clone()
    base.memo = None
    return _run(bench, config, base, traced)


def _fresh_base(bench):
    clear_base_cache()
    return prepare_base(bench)


def _memo_counts():
    lookups = obs_metrics.counter("repro_analysis_memo_total")
    return (lookups.value(outcome="hit"), lookups.value(outcome="miss"))


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", BENCHMARKS)
def test_every_order_matches_a_memo_free_run(name, traced):
    bench = get_benchmark(name)
    want = {kind: _memo_free(bench, Config(kind), traced) for kind in CONFIGS}
    for order in itertools.permutations(CONFIGS):
        base = _fresh_base(bench)
        runs = []
        for kind in order:
            tracer = Tracer(label="memo") if traced else None
            runs.append((kind, run_config(bench, Config(kind), base,
                                          tracer=tracer), tracer))
            assert _record(*runs[-1][1:]) == want[kind], (order, kind)
        # a later configuration leaves an earlier one's records alone
        for kind, result, tracer in runs:
            assert _record(result, tracer) == want[kind], (order, kind)


def test_a_table2_pass_reuses_the_untouched_units():
    clear_base_cache()
    before = _memo_counts()
    for bench in all_benchmarks():
        base = prepare_base(bench)
        for kind in CONFIGS:
            run_config(bench, Config(kind), base)
    hits, misses = (now - then for now, then in zip(_memo_counts(), before))
    assert (hits, misses) == (59, 52)


def test_callee_purity_separates_an_untouched_unit():
    want = {kind: _memo_free(PURITY, Config(kind)) for kind in CONFIGS}
    parallel = {kind: want[kind]["parallel_origins"] for kind in CONFIGS}
    assert parallel == {"none": [], "conventional": [],
                        "annotation": ["MAIN:0"]}
    for order in itertools.permutations(CONFIGS):
        base = _fresh_base(PURITY)
        for kind in order:
            assert _run(PURITY, Config(kind), base, False) == want[kind], \
                (order, kind)


def _strip_directives(body):
    """Replace every top-level directive of ``body`` by its loop, in
    place; how many it replaced."""
    stripped = 0
    for idx, s in enumerate(body):
        if isinstance(s, ast.OmpParallelDo):
            body[idx] = s.loop
            stripped += 1
    return stripped


GCD_ONLY = PolarisOptions(use_banerjee=False)


@pytest.mark.parametrize("name", ["trfd", "mdg", "ocean"])
def test_mutating_a_returned_program_does_not_reach_the_memo(name):
    """Directives stripped, statements replaced and rewritten in place,
    decision records flipped: the next configuration (and, last, the
    GCD-only options, which analyze every unit afresh) still match."""
    bench = get_benchmark(name)
    configs = [Config(kind) for kind in CONFIGS + CONFIGS]
    configs.append(Config("none", polaris=GCD_ONLY))
    want = {config: _memo_free(bench, config) for config in configs}
    base = _fresh_base(bench)
    stripped = 0
    for config in configs:
        result = run_config(bench, config, base)
        assert _record(result, None) == want[config], config
        for unit in result.program.units:
            stripped += _strip_directives(unit.body)
            for s in ast.walk_stmts(unit.body):
                if isinstance(s, ast.Assign):
                    s.value = ast.IntLit(7)
            unit.body[:1] = [ast.Continue(label=None)] if unit.body else []
        for decision in result.report.verdicts:
            decision.parallelized = not decision.parallelized
            decision.dep_tests.clear()
    assert stripped


def test_options_are_part_of_the_key():
    bench = get_benchmark("trfd")
    gcd_only = Config("none", polaris=GCD_ONLY)
    want = _memo_free(bench, gcd_only)
    assert want["test_stats"] != _memo_free(bench, Config("none"))[
        "test_stats"]
    base = _fresh_base(bench)
    _run(bench, Config("none"), base, False)
    assert _run(bench, gcd_only, base, False) == want


def test_demand_inlining_bypasses_the_memo():
    bench = get_benchmark("dyfesm")
    demand = Config("annotation", annotations="demand")
    want = _memo_free(bench, demand, traced=True)
    base = _fresh_base(bench)
    for kind in CONFIGS:
        run_config(bench, Config(kind), base)
    before, entries = _memo_counts(), len(base.memo.analyzed)
    assert _run(bench, demand, base, True) == want
    assert (_memo_counts(), len(base.memo.analyzed)) == (before, entries)
