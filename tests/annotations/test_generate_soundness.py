"""Tests for the future-work extensions: automatic annotation generation
and annotation soundness checking."""

import pytest

from repro.annotations import (AnnotationInliner, AnnotationRegistry,
                               ReverseInliner)
from repro.annotations.generate import (generate_all, generate_annotation,
                                        render_annotation)
from repro.annotations.parser import parse_annotations
from repro.annotations.soundness import check_registry, check_soundness
from repro.perfect import get_benchmark
from repro.polaris import Polaris
from repro.program import Program
from repro.runtime.difftest import diff_test


class TestGeneration:
    def test_pcinit_generated(self):
        prog = get_benchmark("bdna").program()
        res = generate_annotation(prog, "PCINIT")
        assert res.ok, res.reason
        text = render_annotation(res.annotation)
        # the derived annotation matches the hand-written one's structure
        assert "dimension X2[NSP]" in text
        assert "X2[1:NSP] = unknown(" in text
        assert "TSTEP" in text

    def test_generated_annotation_reparses(self):
        prog = get_benchmark("bdna").program()
        res = generate_annotation(prog, "PCINIT")
        anns = parse_annotations(render_annotation(res.annotation))
        assert anns[0].name == "PCINIT"
        assert anns[0].declared_dims().keys() == {"X2", "Y2", "Z2"}

    def test_generated_annotation_drives_pipeline(self):
        # the full future-work loop: generate -> inline -> parallelize ->
        # reverse -> verify, with no human in the loop
        bench = get_benchmark("bdna")
        prog = bench.program()
        res = generate_annotation(prog, "PCINIT")
        registry = AnnotationRegistry()
        registry.add(res.annotation)
        AnnotationInliner(registry).run(prog)
        report = Polaris().run(prog)
        ReverseInliner(registry).run(prog)
        ks = [v for v in report.verdicts
              if v.unit == "BDNA" and v.var == "KS"]
        assert ks and ks[0].parallelized
        assert diff_test(prog).passed

    def test_compositional_rejected(self):
        prog = get_benchmark("dyfesm").program()
        res = generate_annotation(prog, "FSMP")
        assert not res.ok
        assert "calls" in res.reason

    def test_error_check_omitted_and_counted(self):
        prog = get_benchmark("adm").program()
        res = generate_annotation(prog, "ADVCHK")
        assert res.ok, res.reason
        assert res.omitted_error_checks == 1
        text = render_annotation(res.annotation)
        assert "C[" in text

    def test_indirect_write_weaker_than_unique(self):
        # TRAPUT writes XIJ(IA(MI)+J): the generator derives the sound
        # but weak region XIJ[IA(MI)+1 : IA(MI)+40] — it cannot invent
        # the one-to-one claim, so the orbital loop still needs the
        # human unique() annotation to parallelize
        bench = get_benchmark("trfd")
        prog = bench.program()
        res = generate_annotation(prog, "TRAPUT")
        assert res.ok, res.reason
        assert "IA[MI]" in render_annotation(res.annotation)
        registry = AnnotationRegistry()
        registry.add(res.annotation)
        AnnotationInliner(registry).run(prog)
        report = Polaris().run(prog)
        mi = [v for v in report.verdicts
              if v.unit == "TRFD" and v.var == "MI"]
        assert mi and not mi[0].parallelized

    def test_generate_all_reports_reasons(self):
        prog = get_benchmark("dyfesm").program()
        results = generate_all(prog)
        assert results["FSMP"].ok is False
        assert results["SHAPE1"].ok  # a plain leaf
        assert all(r.ok or r.reason for r in results.values())

    def test_whole_array_write_is_part_of_the_region(self):
        # A = 0.0 writes all of A(1:10); a summary of A[1:N] alone would
        # hide the write to A(N+1:10)
        prog = Program.from_source(
            "      SUBROUTINE W(A, N)\n"
            "      DIMENSION A(10)\n"
            "      A = 0.0\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        res = generate_annotation(prog, "W")
        assert not res.ok
        assert res.reason == "cannot summarize the region written to A"

    def test_missing_source(self):
        prog = Program.from_source(
            "      PROGRAM P\n      CALL GONE(1)\n      END\n")
        assert not generate_annotation(prog, "GONE").ok


class TestSoundness:
    def test_hand_annotations_pass(self):
        for name in ("dyfesm", "bdna", "arc2d", "adm", "ocean", "trfd",
                     "mg3d"):
            bench = get_benchmark(name)
            prog = bench.program()
            reports = check_registry(prog, bench.registry())
            for rep in reports.values():
                assert rep.sound, (name, rep.subroutine, rep.violations)

    def test_missing_write_detected(self):
        bench = get_benchmark("bdna")
        prog = bench.program()
        bad = parse_annotations("""
subroutine PCINIT(X2, Y2, Z2, NSP) {
  dimension X2[NSP];
  X2[*] = unknown(FX[1], TSTEP);
}
""")[0]
        rep = check_soundness(prog, bad)
        assert not rep.sound
        assert any("Y2" in v for v in rep.violations)

    def test_missing_read_warned(self):
        # the paper's Figure 14 precedent: omitted reads are a warning
        # (sound only when the arrays are initialized-once), not an error
        bench = get_benchmark("bdna")
        prog = bench.program()
        bad = parse_annotations("""
subroutine PCINIT(X2, Y2, Z2, NSP) {
  dimension X2[NSP], Y2[NSP], Z2[NSP];
  X2[*] = unknown(NSP);
  Y2[*] = unknown(NSP);
  Z2[*] = unknown(NSP);
}
""")[0]
        rep = check_soundness(prog, bad)
        assert rep.sound
        assert any("FX" in w for w in rep.warnings)

    def test_unique_flagged_for_review(self):
        bench = get_benchmark("dyfesm")
        prog = bench.program()
        reports = check_registry(prog, bench.registry())
        assem = reports["ASSEM"]
        assert assem.sound
        assert any("one-to-one" in w for w in assem.warnings)

    def test_relaxed_io_flagged(self):
        bench = get_benchmark("adm")
        prog = bench.program()
        rep = check_registry(prog, bench.registry())["ADVCHK"]
        assert rep.sound
        assert any("I/O" in w for w in rep.warnings)

    def test_library_annotation_warns_only(self):
        bench = get_benchmark("mg3d")
        prog = Program.from_sources(
            {"main.f": bench.sources["mg3d_main.f"]}, "mg3d-no-lib")
        rep = check_registry(prog, bench.registry())["CFFTZ"]
        assert rep.sound
        assert any("no source" in w for w in rep.warnings)

    def test_unsound_annotation_caught_at_runtime(self):
        # the dynamic side: an annotation hiding a read lets Polaris
        # parallelize a genuinely sequential loop; diff_test catches it
        src = ("      PROGRAM P\n"
               "      COMMON /D/ A(100)\n"
               "      A(1) = 1.0\n"
               "      DO 10 I = 2, 100\n"
               "        CALL STEP1(I)\n"
               "   10 CONTINUE\n"
               "      WRITE(6,*) A(100)\n"
               "      END\n"
               "      SUBROUTINE STEP1(I)\n"
               "      COMMON /D/ A(100)\n"
               "      A(I) = A(I-1) + 1.0\n"
               "      END\n")
        lying = AnnotationRegistry.from_text(
            "subroutine STEP1(I) { A[I] = unknown(I); }\n")
        prog = Program.from_source(src)
        # the static checker warns about the hidden read of A...
        rep = check_soundness(prog, list(lying)[0])
        assert any("reads A" in w for w in rep.warnings)
        # ...and the runtime tester catches the unsoundness outright
        AnnotationInliner(lying).run(prog)
        report = Polaris().run(prog)
        ReverseInliner(lying).run(prog)
        assert any(v.parallelized and v.var == "I" and v.unit == "P"
                   for v in report.verdicts)
        assert not diff_test(prog).passed
