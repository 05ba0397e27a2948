"""CLI tests: every subcommand exercised end-to-end through main()."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.fortran import ast

ROOT = Path(__file__).resolve().parents[1]
CARRIED = ROOT / "tests" / "fortran" / "corpus" / "carried_dependence.f"

READ_SOURCE = """      PROGRAM RD
      READ(5,*) N, X
      WRITE(6,*) N*X
      END
"""


def _python(*args):
    """A fresh interpreter on this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _repro(*argv):
    """``python -m repro argv...``: its exit code and stderr are what a
    user sees."""
    return _python("-m", "repro", *argv)

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

    def test_explain_flag(self, files, capsys):
        src, ann = files
        assert main(["parallelize", src, "--annotations", ann,
                     "--explain"]) == 0
        err = capsys.readouterr().err
        assert "PARALLEL" in err

    def test_profile_top_prints_phases_and_cprofile(self, files, capsys):
        src, ann = files
        assert main(["parallelize", "--profile-top", "5", src,
                     "--annotations", ann]) == 0
        err = capsys.readouterr().err
        assert "phase timings" in err
        for phase in ("parse", "normalize", "dependence", "reverse"):
            assert phase in err, phase
        assert "cProfile top 5 (cumulative)" in err


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
        proc = _repro("parallelize", dialect_file)
        assert proc.returncode == 2
        assert f"repro: error: {dialect_file}:6:7: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_output_file(self, dialect_file, tmp_path, capsys):
        out = tmp_path / "mix_omp.f"
        assert main(["parallelize", "--tolerant", dialect_file,
                     "-o", str(out)]) == 0
        assert "PROGRAM MIX" in out.read_text()
        assert "1 diagnostics" in capsys.readouterr().out


    def test_profile_and_explain_on_the_tolerant_path(self, dialect_file,
                                                      capsys):
        assert main(["parallelize", "--tolerant", "--profile", "--explain",
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


FORMAT_SOURCE = """      PROGRAM FMT
      REAL X
      X = 1.5
      WRITE (6, 20) X
   20 FORMAT (F4.1)
      END
"""

LIST_READ_SOURCE = """      PROGRAM LREAD
      READ *, N
      PRINT *, N
      END
"""

#: a DATA-initialised local and a SAVE-listed one, each bumped per call
SAVED_LOCALS_SOURCE = """      PROGRAM KEPT
      CALL S
      CALL S
      CALL T
      CALL T
      END
      SUBROUTINE S
      INTEGER K
      DATA K /0/
      K = K + 1
      PRINT *, K
      END
      SUBROUTINE T
      SAVE M
      M = M + 1
      PRINT *, M
      END
"""


class TestEmittedProgram:
    """The output keeps every statement it needs and re-parses."""

    def test_format_label_survives_parallelize(self, tmp_path, capsys):
        from repro.fortran.parser import parse_source
        src = tmp_path / "fmt.f"
        src.write_text(FORMAT_SOURCE)
        assert main(["parallelize", str(src)]) == 0
        out = capsys.readouterr().out
        assert "WRITE(6,20) X" in out
        body = parse_source(out).units[0].body
        assert any(isinstance(s, ast.Format) and s.label == 20
                   for s in body)

    def test_list_directed_read_parses_in_both_modes(self, tmp_path,
                                                     capsys):
        import json as json_mod
        src = tmp_path / "lread.f"
        src.write_text(LIST_READ_SOURCE)
        assert main(["parallelize", str(src)]) == 0
        assert "READ(*,*) N" in capsys.readouterr().out
        assert main(["parallelize", "--tolerant", "--json", str(src)]) == 0
        assert json_mod.loads(capsys.readouterr().out)["diagnostics"] == []
        assert main(["run", str(src), "--inputs", "4"]) == 0
        assert capsys.readouterr().out.split() == ["4.0"]

    @pytest.mark.parametrize("backend", ["tree", "compiled"])
    def test_data_and_save_locals_keep_their_values(self, tmp_path, capsys,
                                                    monkeypatch, backend):
        from repro.runtime.backend import BACKEND_ENV
        monkeypatch.setenv(BACKEND_ENV, backend)
        src = tmp_path / "kept.f"
        src.write_text(SAVED_LOCALS_SOURCE)
        assert main(["run", str(src)]) == 0
        assert capsys.readouterr().out.split() == ["1.0", "2.0", "1.0",
                                                   "2.0"]

    @pytest.mark.parametrize("backend", ["tree", "compiled"])
    def test_return_in_the_main_program_ends_it(self, tmp_path, capsys,
                                                monkeypatch, backend):
        from repro.runtime.backend import BACKEND_ENV
        monkeypatch.setenv(BACKEND_ENV, backend)
        src = tmp_path / "ret.f"
        src.write_text("      PROGRAM P\n      X = 1.0\n      PRINT *, X\n"
                       "      RETURN\n      END\n")
        assert main(["run", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.out.split() == ["1.0"]
        # X = 1.0 and PRINT charge 1.5 each, the RETURN 1.0
        assert "[simulated cost: 4 work units (serial)]" in captured.err

    @pytest.mark.parametrize("backend", ["tree", "compiled"])
    def test_zero_size_common_array_store_writes_nothing(
            self, tmp_path, capsys, monkeypatch, backend):
        from repro.runtime.backend import BACKEND_ENV
        monkeypatch.setenv(BACKEND_ENV, backend)
        src = tmp_path / "zero.f"
        src.write_text("      PROGRAM P\n      COMMON /C/ A(0), B\n"
                       "      B = 2.0\n      A = 5.0\n      PRINT *, B\n"
                       "      END\n")
        assert main(["run", str(src)]) == 0
        assert capsys.readouterr().out.split()[0] == "2.0"

    @pytest.mark.parametrize("backend", ["tree", "compiled"])
    def test_function_in_a_dimension_bound(self, tmp_path, capsys,
                                           monkeypatch, backend):
        # NF(12) in the declaration is a call, as in an executable
        # statement: W is a local of 12 elements, shaped when first used
        from repro.runtime.backend import BACKEND_ENV
        monkeypatch.setenv(BACKEND_ENV, backend)
        src = tmp_path / "lazy.f"
        src.write_text("      PROGRAM P\n      CALL S\n      END\n"
                       "      SUBROUTINE S\n      DIMENSION W(NF(12))\n"
                       "      W(3) = 2.0\n      PRINT *, W(3)\n      END\n"
                       "      INTEGER FUNCTION NF(N)\n      NF = N\n"
                       "      END\n")
        assert main(["run", str(src)]) == 0
        assert capsys.readouterr().out.split() == ["2.0"]


class TestFuzzDialect:
    def test_unknown_dialect_env_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--count", "1", "--dialect", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


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

    def test_run_feeds_read_from_inputs(self, tmp_path, capsys):
        src = tmp_path / "read.f"
        src.write_text(READ_SOURCE)
        assert main(["run", str(src), "--inputs", "3", "2.5"]) == 0
        assert capsys.readouterr().out.split() == ["7.5"]

    def test_run_past_the_inputs_is_one_error_line(self, tmp_path):
        src = tmp_path / "read.f"
        src.write_text(READ_SOURCE)
        proc = _repro("run", str(src), "--inputs", "3")
        assert proc.returncode == 2
        assert proc.stderr == ("repro: error: READ beyond provided "
                               "input\n")

    def test_missing_file_is_one_error_line(self, tmp_path):
        missing = str(tmp_path / "missing.f")
        proc = _repro("parallelize", missing)
        assert proc.returncode == 2
        assert proc.stderr.startswith("repro: error: ")
        assert missing in proc.stderr
        assert "Traceback" not in proc.stderr

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


def _repro_except(*kept):
    """Every top-level module and package of ``repro`` but ``kept``."""
    names = {p.stem for p in (ROOT / "src" / "repro").iterdir()
             if not p.name.startswith("_")
             and (p.is_dir() or p.suffix == ".py")}
    return tuple(f"repro.{name}" for name in sorted(names - set(kept)))


def _closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _cli(argv):
    """Code that runs ``repro argv...`` in-process."""
    return ("from repro.cli import main\n"
            "try:\n"
            f"    main({argv!r})\n"
            "except SystemExit:\n"
            "    pass\n")


#: one payload of each kind a service worker runs
SERVICE_PAYLOADS = [
    {"kind": "benchmark", "benchmark": "adm", "config": "annotation"},
    {"kind": "sources", "sources": {"carried.f": CARRIED.read_text()},
     "config": "conventional"},
    {"kind": "parallelize", "sources": {"carried.f": CARRIED.read_text()}},
    {"kind": "probe", "probe": "echo", "value": 1},
]


class TestColdStart:
    """What each command loads in a fresh process: a forbidden name (or
    any submodule of it) must stay out of ``sys.modules`` unless the
    case allows that module by name."""

    CASES = {
        "help": (_cli(["--help"]), (
            "repro.fortran", "repro.analysis", "repro.annotations",
            "repro.inlining", "repro.polaris", "repro.pipeline",
            "repro.experiments", "repro.perfect", "repro.runtime",
            "repro.service", "repro.cluster", "repro.fuzz",
            "multiprocessing", "socket", "numpy"), ()),
        "parallelize": (_cli(["parallelize", str(CARRIED)]), (
            "repro.experiments", "repro.perfect", "repro.runtime",
            "repro.service", "repro.cluster", "repro.fuzz",
            "repro.obs.slo", "repro.obs.telemetry", "repro.obs.distributed",
            "multiprocessing", "asyncio", "socket", "numpy", "concurrent",
            "cProfile", "pstats"), ()),
        "svc-status": (_cli(["svc-status", "--port", str(_closed_port())]),
                       _repro_except("cli", "errors", "obs", "service")
                       + ("multiprocessing", "numpy"), ()),
        # the compiled backend's vectorizer reads affine subscripts
        # through repro.analysis.affine; nothing else of the analyzer
        "run": (_cli(["run", str(CARRIED)]), (
            "repro.analysis", "repro.annotations", "repro.polaris",
            "repro.experiments"),
            ("repro.analysis", "repro.analysis.affine",
             "repro.analysis.symbolic")),
        # a pool worker runs analysis only: the ``backend`` a job names
        # is validated, and no program is executed or profiled
        "service-jobs": (
            "from repro.service.execution import execute_payload\n"
            f"for payload in {SERVICE_PAYLOADS!r}:\n"
            "    execute_payload(payload)\n",
            ("repro.runtime", "numpy", "cProfile", "pstats"),
            ("repro.runtime", "repro.runtime.backend")),
        "fuzz-generate": ("from repro.fuzz import generate\n"
                          "generate(1)\n",
                          ("repro.runtime", "numpy"), ()),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_loads_only_what_it_runs(self, command):
        code, forbidden, allowed = self.CASES[command]
        proc = _python("-c", "import sys\n" + code
                       + "print(' '.join(sorted(sys.modules)))\n")
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.splitlines()[-1].split()
        leaked = [m for m in loaded if m not in allowed
                  and any(m == name or m.startswith(name + ".")
                          for name in forbidden)]
        assert leaked == []


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
