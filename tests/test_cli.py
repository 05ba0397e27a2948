"""CLI tests: every subcommand exercised end-to-end through main()."""

import pytest

from repro.cli import main

SOURCE = """      PROGRAM P
      COMMON /D/ A(300,8), ROW(8)
      DO 10 I = 1, 300
        CALL FILLR(I, 8)
   10 CONTINUE
      T = 0.0
      DO 20 I = 1, 300
        T = T + A(I,3)
   20 CONTINUE
      WRITE(6,*) T
      END
      SUBROUTINE FILLR(I, N)
      COMMON /D/ A(300,8), ROW(8)
      DO 5 J = 1, N
        ROW(J) = I + J*0.5
    5 CONTINUE
      DO 6 J = 1, N
        A(I,J) = ROW(J)
    6 CONTINUE
      END
"""

ANNOTATIONS = """subroutine FILLR(I, N) {
  ROW = unknown(I, N);
  do (J = 1:N)  A[I, J] = unknown(ROW, J);
}
"""


@pytest.fixture()
def files(tmp_path):
    src = tmp_path / "prog.f"
    src.write_text(SOURCE)
    ann = tmp_path / "prog.ann"
    ann.write_text(ANNOTATIONS)
    return str(src), str(ann)


class TestParallelize:
    def test_to_stdout(self, files, capsys):
        src, ann = files
        assert main(["parallelize", src, "--annotations", ann]) == 0
        out = capsys.readouterr().out
        assert "!$OMP PARALLEL DO" in out
        assert "CALL FILLR(I,8)" in out.replace(" FILLR(I, 8", " FILLR(I,8")

    def test_to_file(self, files, tmp_path, capsys):
        src, ann = files
        out_path = tmp_path / "out.f"
        assert main(["parallelize", src, "--annotations", ann,
                     "-o", str(out_path)]) == 0
        assert "!$OMP" in out_path.read_text()
        assert "loops parallelized" in capsys.readouterr().out

    def test_none_config(self, files, capsys):
        src, _ = files
        assert main(["parallelize", src, "--config", "none"]) == 0
        out = capsys.readouterr().out
        # the I loop stays serial (opaque call); reductions still found
        assert "REDUCTION(+:T)" in out

    def test_report_flag(self, files, capsys):
        src, ann = files
        assert main(["parallelize", src, "--annotations", ann,
                     "--report"]) == 0
        err = capsys.readouterr().err
        assert "PARALLEL" in err


DIALECT_SOURCE = """      PROGRAM MIX
      COMMON /R/ A(8)
      REAL W(8)
      EQUIVALENCE (W(1), V)
      DATA W /8*0.25/
      X = = 1.0
      DO 10 I = 1, 8
        A(I) = A(I) + W(I)
   10 CONTINUE
      END
"""


@pytest.fixture()
def dialect_file(tmp_path):
    src = tmp_path / "mix.f"
    src.write_text(DIALECT_SOURCE)
    return str(src)


class TestParallelizeTolerant:
    def test_tolerant_recovers_and_annotates(self, dialect_file, capsys):
        assert main(["parallelize", "--tolerant", dialect_file]) == 0
        captured = capsys.readouterr()
        # the W loop reads equivalenced storage and stays serial; the
        # malformed card is reported on stderr, not fatal
        assert "PROGRAM MIX" in captured.out
        assert "parse-error" in captured.err

    def test_json_result_schema(self, dialect_file, capsys):
        import json as json_mod
        assert main(["parallelize", "--tolerant", "--json",
                     dialect_file]) == 0
        result = json_mod.loads(capsys.readouterr().out)
        assert set(result) >= {"output", "diagnostics", "loops",
                               "parallel_count", "units", "config"}
        assert result["units"] == ["MIX"]
        assert [d["code"] for d in result["diagnostics"]] == ["parse-error"]

    def test_explain_prints_per_loop_decisions(self, dialect_file, capsys):
        assert main(["parallelize", "--tolerant", "--explain",
                     dialect_file]) == 0
        err = capsys.readouterr().err
        assert "DO I" in err
        assert "equivalence" in err

    def test_strict_mode_still_fails_fast(self, dialect_file):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            main(["parallelize", dialect_file])

    def test_output_file(self, dialect_file, tmp_path, capsys):
        out = tmp_path / "mix_omp.f"
        assert main(["parallelize", "--tolerant", dialect_file,
                     "-o", str(out)]) == 0
        assert "PROGRAM MIX" in out.read_text()
        assert "1 diagnostics" in capsys.readouterr().out


    def test_profile_and_report_on_the_tolerant_path(self, dialect_file,
                                                     capsys):
        assert main(["parallelize", "--tolerant", "--profile", "--report",
                     dialect_file]) == 0
        err = capsys.readouterr().err
        for phase in ("parse", "infer", "inline", "normalize", "summaries",
                      "dependence", "reverse"):
            assert phase in err, phase
        assert "MIX: DO I" in err  # Report.describe()

    def test_json_strict_keeps_the_inferred_default(self, files, capsys):
        import json as json_mod
        src, _ = files
        assert main(["parallelize", "--json", src]) == 0
        result = json_mod.loads(capsys.readouterr().out)
        assert result["annotations_mode"] == "inferred"
        assert result["diagnostics"] == []


class TestFuzzDialect:
    def test_unknown_dialect_env_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FUZZ_DIALECT", "bogus")
        assert main(["fuzz", "--count", "1"]) == 2
        assert "unknown dialect" in capsys.readouterr().err


class TestReportRunVerify:
    def test_report(self, files, capsys):
        src, ann = files
        assert main(["report", src, "--annotations", ann]) == 0
        out = capsys.readouterr().out
        assert "loops parallelized" in out

    def test_report_profile_books_inference_separately(self, files,
                                                       capsys):
        src, _ = files
        assert main(["report", src, "--annotations-mode", "inferred",
                     "--profile"]) == 0
        err = capsys.readouterr().err
        assert "infer" in err and "inline" in err

    def test_run_serial(self, files, capsys):
        src, _ = files
        assert main(["run", src]) == 0
        out, err = capsys.readouterr()
        assert out.strip()  # the WRITE output
        assert "serial" in err

    def test_run_on_machine(self, files, tmp_path, capsys):
        """``run --machine`` prices the recorded regions: the directives
        Polaris inserts cost more than they save on this small input,
        and differently on each machine."""
        src, ann = files
        out = str(tmp_path / "par.f")
        assert main(["parallelize", src, "--annotations", ann,
                     "-o", out]) == 0
        capsys.readouterr()
        for machine, cost in (("serial", 26407), ("intel-mac", 42271),
                              ("amd-opteron", 54407)):
            assert main(["run", out, "--machine", machine]) == 0
            printed, err = capsys.readouterr()
            assert printed.split() == ["45600.0"]
            where = "(serial)" if machine == "serial" else f"on {machine}"
            assert f"[simulated cost: {cost} work units {where}]" in err

    def test_verify_matches(self, files, capsys):
        src, ann = files
        assert main(["verify", src, "--annotations", ann]) == 0
        assert "matches" in capsys.readouterr().out

    def test_verify_catches_bad_annotation(self, tmp_path, capsys):
        src = tmp_path / "seq.f"
        src.write_text(
            "      PROGRAM P\n"
            "      COMMON /D/ A(100)\n"
            "      A(1) = 1.0\n"
            "      DO 10 I = 2, 100\n"
            "        CALL NEXT(I)\n"
            "   10 CONTINUE\n"
            "      WRITE(6,*) A(100)\n"
            "      END\n"
            "      SUBROUTINE NEXT(I)\n"
            "      COMMON /D/ A(100)\n"
            "      A(I) = A(I-1) + 1.0\n"
            "      END\n")
        ann = tmp_path / "bad.ann"
        ann.write_text("subroutine NEXT(I) { A[I] = unknown(I); }\n")
        assert main(["verify", str(src), "--annotations", str(ann)]) == 1
        assert "diverges" in capsys.readouterr().out


class TestGenerateCheck:
    def test_generate(self, files, capsys):
        src, _ = files
        assert main(["generate", src]) == 0
        out = capsys.readouterr().out
        assert "subroutine FILLR(I, N)" in out
        assert "A[I, 1:N]" in out or "A[I, 1:8]" in out

    def test_check_sound(self, files, capsys):
        src, ann = files
        assert main(["check", src, "--annotations", ann]) == 0
        assert "FILLR: SOUND" in capsys.readouterr().out

    def test_check_unsound(self, files, tmp_path, capsys):
        src, _ = files
        bad = tmp_path / "bad.ann"
        bad.write_text("subroutine FILLR(I, N) { QQQ = unknown(I); }\n")
        assert main(["check", src, "--annotations", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "UNSOUND" in out


class TestArtifacts:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "DYFESM" in capsys.readouterr().out

    def test_bench(self, capsys):
        assert main(["bench", "adm"]) == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out
        assert "FIGURE 20" in out


class TestCheck:
    """`check` is a service entry point: exercise its exit codes and
    output shapes beyond the happy path."""

    def test_no_annotations_is_trivially_sound(self, files, capsys):
        src, _ = files
        assert main(["check", src]) == 0
        assert capsys.readouterr().out == ""  # empty registry: no rows

    def test_unsound_annotation_exits_one_with_violations(self, files,
                                                          tmp_path,
                                                          capsys):
        src, _ = files
        bad = tmp_path / "bad.ann"
        bad.write_text(
            "subroutine FILLR(I, N) { QQQ = unknown(I); }\n")
        assert main(["check", src, "--annotations", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FILLR: UNSOUND" in out
        assert "violation:" in out

    def test_sound_and_unsound_mix_still_fails(self, files, tmp_path,
                                               capsys):
        src, _ = files
        mixed = tmp_path / "mixed.ann"
        mixed.write_text(ANNOTATIONS +
                         "\nsubroutine FILLR2(I) { ZZZ = unknown(I); }\n")
        src2 = tmp_path / "two.f"
        src2.write_text(SOURCE.replace("FILLR", "FILLR2"))
        assert main(["check", str(src2), "--annotations",
                     str(mixed)]) == 1
        out = capsys.readouterr().out
        assert "FILLR2: UNSOUND" in out


class TestDiagnose:
    def test_diagnose_lists_obstacles(self, files, capsys):
        src, _ = files
        assert main(["diagnose", src]) == 0
        out = capsys.readouterr().out
        assert "opaque call to FILLR" in out
        assert "annotation candidates: FILLR" in out

    def test_diagnose_all_includes_parallel(self, files, capsys):
        src, _ = files
        assert main(["diagnose", src, "--all"]) == 0
        assert "parallelizable" in capsys.readouterr().out

    def test_diagnose_quiet_on_fully_parallel_code(self, tmp_path,
                                                   capsys):
        src = tmp_path / "par.f"
        src.write_text(
            "      PROGRAM P\n"
            "      COMMON /D/ A(100)\n"
            "      DO 10 I = 1, 100\n"
            "        A(I) = I*2.0\n"
            "   10 CONTINUE\n"
            "      WRITE(6,*) A(1)\n"
            "      END\n")
        assert main(["diagnose", str(src)]) == 0
        out = capsys.readouterr().out
        assert "obstacle" not in out.lower() or out == ""
        # with --all the parallel loop is listed
        assert main(["diagnose", str(src), "--all"]) == 0
        assert "parallelizable" in capsys.readouterr().out


class TestJobsErrors:
    """Bad worker counts exit with a clear message, not a traceback
    (both the REPRO_JOBS env path and the -j argument path)."""

    def test_garbage_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert main(["table1"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "REPRO_JOBS='lots' is not an integer" in err

    def test_negative_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "-4")
        assert main(["table1"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and ">= 0" in err

    def test_negative_jobs_flag(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["table1", "-j", "-4"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and ">= 0" in err

    def test_non_integer_jobs_flag_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "-j", "lots"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


@pytest.fixture()
def service(tmp_path):
    from repro.service.server import ParallelizationServer
    server = ParallelizationServer(port=0, jobs=2, inline=True)
    host, port = server.start()
    yield server, host, port
    server.stop()


class TestServiceCLI:
    def test_submit_sources_and_write_output(self, files, tmp_path,
                                             service, capsys):
        _, host, port = service
        src, ann = files
        out_path = tmp_path / "opt.f"
        assert main(["submit", src, "--annotations", ann,
                     "--host", host, "--port", str(port),
                     "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "done" in out and "fresh run" in out
        assert "!$OMP" in out_path.read_text()

    def test_submit_benchmark_twice_hits_cache(self, service, capsys):
        _, host, port = service
        args = ["submit", "adm", "--host", host, "--port", str(port)]
        assert main(args) == 0
        assert "fresh run" in capsys.readouterr().out
        assert main(args) == 0
        assert "(cache)" in capsys.readouterr().out

    def test_submit_json_response(self, service, capsys):
        import json
        _, host, port = service
        assert main(["submit", "adm", "--config", "none", "--json",
                     "--host", host, "--port", str(port)]) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["state"] == "done"
        assert response["result"]["parallel_count"] > 0

    def test_submit_missing_file(self, service, capsys):
        _, host, port = service
        assert main(["submit", "/no/such/file.f",
                     "--host", host, "--port", str(port)]) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_submit_unreachable_server(self, files, capsys):
        src, _ = files
        assert main(["submit", src, "--port", "1"]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_table2_via_service_matches_local(self, service, capsys):
        """``table2 --service`` assembles the rows from service jobs;
        the rendered table is the local one byte for byte."""
        _, host, port = service
        picked = ["--benchmarks", "qcd", "track"]
        assert main(["table2", *picked]) == 0
        local = capsys.readouterr().out
        assert "QCD" in local and "TRACK" in local
        assert main(["table2", "--service", f"{host}:{port}",
                     *picked]) == 0
        assert capsys.readouterr().out == local

    def test_svc_status_health_and_metrics(self, service, capsys):
        import json
        _, host, port = service
        assert main(["svc-status", "--host", host,
                     "--port", str(port), "--metrics"]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["ok"] and health["workers"] == 2
        assert "repro_jobs_submitted_total" in health["metrics"]

    def test_svc_status_prometheus(self, service, capsys):
        _, host, port = service
        assert main(["svc-status", "--prometheus", "--host", host,
                     "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_jobs_submitted_total counter" in out

    def test_svc_status_unreachable(self, capsys):
        assert main(["svc-status", "--port", "1"]) == 2
        assert "unreachable" in capsys.readouterr().err
