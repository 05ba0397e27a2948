"""Unit tests for the evaluation harness itself: reporting, the
three-configuration pipeline, reachability-based counting, and tuning."""

import glob
import os

import pytest

from repro.annotations.registry import AnnotationRegistry
from repro.errors import ReproError
from repro.experiments.pipeline import (CONFIGS, Config, prepare_base,
                                        run_all_configs, run_config,
                                        _reachable_units)
from repro.experiments.reporting import bar_chart, text_table
from repro.experiments.table1 import render_table1, table1_rows
from repro.experiments.tuning import tune
from repro.perfect import all_benchmarks, get_benchmark
from repro.perfect.suite import Benchmark
from repro.polaris.report import ConfigComparison
from repro.pipeline import parallelize_program
from repro.program import Program
from repro.runtime.machine import MachineModel


class TestReporting:
    def test_text_table_alignment(self):
        out = text_table(["a", "long-header"], [[1, 2], [333, 4]],
                         title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[1]
        # all rows share the separator width
        assert len(lines[3]) <= len(lines[2]) + 2

    def test_bar_chart_scales_to_max(self):
        out = bar_chart(["x", "y"], [1.0, 2.0], width=10)
        bars = [line.count("#") for line in out.splitlines()]
        assert bars[1] == 10
        assert bars[0] == 5

    def test_bar_chart_empty(self):
        assert bar_chart([], []) == ""


class TestTable1:
    def test_rows_match_registry(self):
        rows = table1_rows()
        assert len(rows) == 12
        assert ("DYFESM",
                "Structural dynamics benchmark (finite element)") in rows

    def test_render_contains_all(self):
        text = render_table1()
        for name, _ in table1_rows():
            assert name in text


class TestConfigComparison:
    def test_against_baseline(self):
        cmp_ = ConfigComparison.against_baseline(
            baseline={"a", "b", "c"}, config={"b", "c", "d", "e"})
        assert cmp_.par_loops == 4
        assert cmp_.par_loss == 1
        assert cmp_.par_extra == 2


class TestReachability:
    def test_dead_procedure_excluded(self):
        prog = Program.from_source(
            "      PROGRAM P\n"
            "      CALL USED\n"
            "      END\n"
            "      SUBROUTINE USED\n"
            "      X = 1\n"
            "      END\n"
            "      SUBROUTINE DEAD\n"
            "      X = 2\n"
            "      END\n")
        reachable = _reachable_units(prog)
        assert reachable == {"P", "USED"}

    def test_loss_requires_dead_original(self):
        # BDNA: PCINIT's loop counts as lost under conventional inlining
        # precisely because the original unit becomes unreachable
        bench = get_benchmark("bdna")
        results = run_all_configs(bench)
        conv = results["conventional"]
        assert "PCINIT" not in _reachable_units(conv.program)
        baseline = results["none"].parallel_origins()
        assert any(o.startswith("PCINIT") for o in baseline)
        assert not any(o.startswith("PCINIT")
                       for o in conv.parallel_origins())


def _golden_programs():
    """(name, program factory, annotations) of the golden decision
    table's corpus and generated groups."""
    from tests.polaris import test_golden_decisions as golden
    out = []
    for path in sorted(glob.glob(os.path.join(golden.CORPUS, "*.f"))):
        name = os.path.basename(path)
        with open(path) as f:
            text = f.read()
        try:
            Program.from_sources({name: text}, name)
        except ReproError:
            continue
        out.append((name, lambda name=name, text=text:
                    Program.from_sources({name: text}, name), ""))
    for dialect in ("core", "extended"):
        options = golden.GeneratorOptions(dialect=dialect)
        for i in range(golden.GENERATED):
            fuzz = golden.generate(golden.derive_seed(golden.SEED, i),
                                   options)
            out.append((f"{dialect}-{i}", fuzz.program, fuzz.annotations))
    return out


class TestReachabilityFromTheDriversGraph:
    """``reachable_units`` reads the driver's call graph plus the calls
    the reverse inliner restored; it must equal a call graph rebuilt
    over the finished program."""

    def _check(self, result):
        assert result.report.edges is not None
        assert result.reachable_units() == _reachable_units(result.program)

    def test_perfect(self):
        for bench in all_benchmarks():
            for kind in CONFIGS:
                self._check(run_config(bench, Config(kind)))

    def test_golden_corpus_and_generated_programs(self):
        programs = _golden_programs()
        assert len(programs) > 80
        for name, program_of, annotations in programs:
            for kind in CONFIGS:
                self._check(parallelize_program(
                    program_of(), Config(kind),
                    AnnotationRegistry.from_text(annotations)))

    def test_demand_inlining_rebuilds_the_graph(self):
        result = run_config(get_benchmark("dyfesm"),
                            Config("annotation", annotations="demand"))
        assert result.report.edges is None
        assert result.reachable_units() == _reachable_units(result.program)


class TestPipeline:
    def test_base_program_not_mutated(self):
        bench = get_benchmark("adm")
        base = prepare_base(bench)
        before = base.total_lines()
        run_config(bench, Config("annotation"), base)
        run_config(bench, Config("conventional"), base)
        assert base.total_lines() == before
        # the baseline config works on a clone too; its line count may
        # exceed the pristine source by the inserted OMP directive lines
        none = run_config(bench, Config("none"), base)
        assert none.code_lines >= before
        assert base.total_lines() == before

    def test_config_records_attached(self):
        bench = get_benchmark("adm")
        results = run_all_configs(bench)
        assert results["conventional"].conventional_result is not None
        assert results["annotation"].annotation_result is not None
        assert results["annotation"].reverse_result is not None
        assert results["none"].conventional_result is None

    def test_library_units_not_inlined(self):
        bench = get_benchmark("mg3d")
        results = run_all_configs(bench)
        conv = results["conventional"].conventional_result
        assert all(s.reason == "no-source" for s in conv.sites
                   if s.callee == "CFFTZ")


class TestTuning:
    SRC = ("      PROGRAM P\n"
           "      COMMON /D/ A(2000), B(8)\n"
           "      DO 10 I = 1, 2000\n"
           "        A(I) = I*0.5\n"
           "   10 CONTINUE\n"
           "      DO 30 K = 1, 100\n"
           "        DO 20 J = 1, 8\n"
           "          B(J) = B(J) + 0.01\n"
           "   20   CONTINUE\n"
           "   30 CONTINUE\n"
           "      END\n")

    def fixture(self):
        from repro.polaris import Polaris
        prog = Program.from_source(self.SRC)
        Polaris().run(prog)
        return prog

    def test_tuning_disables_tiny_loop_keeps_big_one(self):
        machine = MachineModel("m", threads=8, fork_join_overhead=1500.0)
        result = tune(self.fixture(), machine)
        assert result.tuned_cost <= result.initial_cost
        assert result.tuned_cost <= result.serial_cost
        assert any(label.startswith("J@") for label in result.disabled)
        assert any(label.startswith("I@") for label in result.kept)

    def test_huge_overhead_disables_everything(self):
        machine = MachineModel("m", threads=8,
                               fork_join_overhead=10_000_000.0)
        result = tune(self.fixture(), machine)
        assert result.kept == []
        assert result.speedup == pytest.approx(1.0, rel=1e-6)

    def test_zero_overhead_keeps_everything_useful(self):
        machine = MachineModel("m", threads=8, fork_join_overhead=0.0,
                               per_thread_overhead=0.0)
        result = tune(self.fixture(), machine)
        assert result.speedup > 1.5
