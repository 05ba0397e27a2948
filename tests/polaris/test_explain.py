"""Tests for the loop record behind ``repro diagnose``: the driver's
:class:`LoopDecision` lists every legality blocker, and
:mod:`repro.polaris.explain` ranks and renders those records."""

import glob
import json
import os

import pytest

from repro.analysis.loops import iter_loops
from repro.cli import main
from repro.experiments.pipeline import run_config
from repro.fortran.fixedform.pipeline import parallelize_files
from repro.perfect import all_benchmarks, get_benchmark
from repro.pipeline import CONFIGS, Config, parallelize_program
from repro.polaris.explain import annotation_candidates, describe, rank
from repro.program import Program
from repro.trace import LoopDecision

CORPUS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "fortran", "corpus", "*.f")))


def records(src):
    prog = Program.from_source(src)
    return parallelize_program(prog, Config("none")).report.verdicts


def diagnose_first(src):
    return records(src)[0]


def witness_kinds(d):
    return {witness.split()[0] for reason, _, witness in d.blockers
            if reason == "array-dep"}


class TestDiagnoseLoop:
    def test_parallel_loop_clean(self):
        d = diagnose_first(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = I*2.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert d.parallelized
        assert "parallelizable" in describe(d)

    def test_flow_dependence_reported(self):
        d = diagnose_first(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 2, N\n"
            "        A(I) = A(I-1) + 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not d.parallelized
        assert "flow" in witness_kinds(d)
        assert any("A(I)" in witness for _, _, witness in d.blockers)
        assert d.blockers == (("array-dep", "A", "flow A(I) -> A(I-1)"),)

    def test_output_dependence_reported(self):
        d = diagnose_first(
            "      SUBROUTINE S(A, IDX, N)\n"
            "      DIMENSION A(*), IDX(*)\n"
            "      DO 10 I = 1, N\n"
            "        A(IDX(I)) = 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert not d.parallelized
        assert witness_kinds(d) == {"output"}

    def test_multiple_obstacles_all_listed(self):
        # the legality analysis does not stop at the first blocker
        d = diagnose_first(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(*)\n"
            "      DO 10 I = 2, N\n"
            "        WRITE(6,*) I\n"
            "        CALL OPAQUE(I)\n"
            "        T = A(I)\n"
            "        A(I) = A(I-1) + T\n"
            "        A(I) = U\n"
            "        U = A(I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        text = describe(d)
        assert "I/O" in text
        assert "OPAQUE" in text
        assert "scalar U" in text
        assert "flow" in witness_kinds(d)
        # the first blocker is the verdict's reason
        assert (d.reason, d.detail) == ("io", "")

    def test_privatizable_array_not_reported(self):
        d = diagnose_first(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(100,8), T(8)\n"
            "      DO 10 I = 1, N\n"
            "        DO 20 J = 1, 8\n"
            "          T(J) = A(I,J)\n"
            "   20   CONTINUE\n"
            "        DO 30 J = 1, 8\n"
            "          A(I,J) = T(9-J)\n"
            "   30   CONTINUE\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert d.parallelized, describe(d)

    def test_annotation_candidates(self):
        d = diagnose_first(
            "      PROGRAM P\n"
            "      DO 10 I = 1, 100\n"
            "        CALL FSMP(I, I)\n"
            "        CALL FSMP(I, I)\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert annotation_candidates(d) == ["FSMP"]


class TestDiagnoseProgram:
    def test_ranking_prefers_annotation_candidates(self):
        prog = get_benchmark("dyfesm").program()
        total = sum(1 for u in prog.units for _ in iter_loops(u.body))
        diags = rank(parallelize_program(prog, Config("none"))
                     .report.verdicts)
        serial = [d for d in diags if not d.parallelized]
        assert serial
        # the first serial records are the call-blocked loops (where an
        # annotation would pay off), matching the paper's workflow
        first = serial[0]
        assert annotation_candidates(first)
        # and the overall list covers every loop in the program
        assert len(diags) == total


class TestDiagnoseAgreesWithDriver:
    """``repro diagnose`` renders the driver's own records, so it cannot
    call a loop serial that the driver parallelizes, or the reverse."""

    def _diagnose(self, name, tmp_path, capsys):
        for fname, text in get_benchmark(name).sources.items():
            (tmp_path / fname).write_text(text)
        files = sorted(str(p) for p in tmp_path.glob("*.f"))
        assert main(["diagnose", "--all"] + files) == 0
        return capsys.readouterr().out

    def test_bdna_pcinit_loop_is_parallelizable(self, tmp_path, capsys):
        # the paper's Figure 2/3 loop: induction substitution removes the
        # scalar I recurrence before legality is decided
        out = self._diagnose("bdna", tmp_path, capsys)
        assert "PCINIT: DO J: parallelizable" in out
        assert "scalar I" not in out

    def test_qcd_unprofitable_loop_is_serial(self, tmp_path, capsys):
        out = self._diagnose("qcd", tmp_path, capsys)
        (qcd2,) = [d for d in parallelize_program(
            get_benchmark("qcd").program(), Config("none")).report.verdicts
            if d.origin == "QCD:2"]
        assert (qcd2.unit, qcd2.var, qcd2.reason) == ("QCD", "I",
                                                      "unprofitable")
        assert "QCD: DO I: serial\n  - unprofitable" in out


def check_record(d):
    if d.parallelized or d.reason == "unprofitable":
        assert d.blockers == (), d.describe()
    else:
        assert d.blockers and d.blockers[0][:2] == (d.reason, d.detail), \
            d.describe()
    back = LoopDecision.from_dict(json.loads(json.dumps(d.to_dict())))
    assert back.blockers == d.blockers
    assert back.to_dict() == d.to_dict()


class TestRecordInvariant:
    @pytest.mark.parametrize("kind", CONFIGS)
    def test_perfect(self, kind):
        for benchmark in all_benchmarks():
            verdicts = run_config(benchmark, Config(kind)).report.verdicts
            assert verdicts
            for d in verdicts:
                check_record(d)

    @pytest.mark.parametrize("path", CORPUS,
                             ids=[os.path.basename(p) for p in CORPUS])
    def test_corpus(self, path):
        with open(path, encoding="utf-8") as fh:
            sources = {os.path.basename(path): fh.read()}
        for kind in CONFIGS:
            result, _ = parallelize_files(sources, kind)
            for d in result.report.verdicts:
                check_record(d)
