"""``scripts/bench_gate.py``: the gate over ``bench/run.py`` results.

The bench run is replaced by canned result dicts, so nothing is
measured here; the gate's arithmetic, its exit codes and the files it
writes are."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from repro.obs.dashboard import _history_value, read_bench_history

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_gate.py"
END_TO_END = ("setup_s", "pass_s", "ops_per_s", "op_ms_p50", "op_ms_p90",
              "peak_rss_mb")


def _load():
    spec = importlib.util.spec_from_file_location("bench_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(pass_s, suite="table2", commit="abc1234"):
    """What ``bench/run.py`` writes to ``result.json``."""
    metrics = {name: {"value": 1.0, "unit": "s"} for name in END_TO_END}
    metrics["pass_s"] = {"value": pass_s, "unit": "s"}
    return {"correct": True, "attempted": 36, "failed": 0,
            "metrics": metrics,
            "header": {"workload": suite, "seed": 2011, "trace": 0,
                       "git_commit": commit},
            "diagnostics": {"passes": 90}, "failures": []}


@pytest.fixture()
def gate(tmp_path, monkeypatch):
    """The script with its root (baselines) moved to ``tmp_path`` and
    ``run_bench`` answering from ``gate.runs``."""
    module = _load()
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    module.runs = []
    monkeypatch.setattr(module, "run_bench",
                        lambda suite: module.runs.pop(0))
    module.history = tmp_path / "history.jsonl"
    module.baseline = tmp_path / "BENCH_table2.json"
    module.baseline.write_text(json.dumps(_result(0.150)))
    return module


def _main(gate, *args):
    return gate.main([*args, "--history", str(gate.history)])


def test_passes_at_the_baseline(gate):
    gate.runs.append(_result(0.150))
    assert _main(gate, "--check") == 0


def test_fails_thirty_percent_over_with_a_quarter_allowed(gate, capsys):
    gate.runs.append(_result(0.150 * 1.3))
    assert _main(gate, "--check", "--tolerance", "0.25") == 1
    assert "bench gate FAILED: 0.1950s > 0.1875s" in capsys.readouterr().out


def test_a_failed_bench_run_fails_the_gate(gate):
    gate.runs.append(None)
    assert _main(gate, "--check") != 0
    assert not gate.history.exists()


def test_a_failed_bench_run_writes_no_baseline(gate):
    before = gate.baseline.read_text()
    gate.runs.append(None)
    assert _main(gate, "--write-baseline") != 0
    assert gate.baseline.read_text() == before


def test_write_baseline_stores_the_result_verbatim(gate):
    fresh = _result(0.1234, suite="figure20")
    gate.runs.append(fresh)
    assert _main(gate, "--suite", "figure20", "--write-baseline") == 0
    written = gate.baseline.with_name("BENCH_figure20.json")
    assert json.loads(written.read_text()) == fresh


def test_history_rows_carry_what_the_dashboard_charts(gate):
    gate.runs += [_result(0.150), _result(0.160, commit="def5678")]
    assert _main(gate, "--check") == 0
    assert _main(gate, "--write-baseline") == 0
    check, written = read_bench_history(str(gate.history))
    keys = {"suite", "mode", "passed", "allowed_seconds", "total_seconds",
            "git_commit", "seed", "phases"}
    assert set(check) == set(written) == keys
    assert (check["suite"], check["mode"], check["passed"]) == \
        ("table2", "check", True)
    assert check["allowed_seconds"] == pytest.approx(0.150 * 1.25)
    assert _history_value(check) == 0.150
    assert sorted(check["phases"]) == sorted(END_TO_END)
    assert (written["mode"], written["passed"], written["git_commit"]) == \
        ("write-baseline", None, "def5678")
    assert _history_value(written) == 0.160


def test_run_bench_reads_the_result_file(monkeypatch):
    """The real ``run_bench`` against a fake ``bench/run.py`` process."""
    module = _load()
    canned = _result(0.150)
    calls = []

    def fake_run(argv, **_kwargs):
        calls.append(argv)
        out = argv[argv.index("--out") + 1]
        Path(out, "result.json").write_text(json.dumps(canned))
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    assert module.run_bench("table2") == canned
    assert calls[0][1].endswith("bench/run.py")
    assert calls[0][2:4] == ["--workload", "table2"]
    assert "--seconds" not in calls[0] and "--trace" not in calls[0]

    monkeypatch.setattr(module.subprocess, "run",
                        lambda argv, **_kw: subprocess.CompletedProcess(
                            argv, 1))
    assert module.run_bench("table2") is None


def test_the_gate_imports_nothing_from_repro():
    text = SCRIPT.read_text()
    assert "import repro" not in text and "from repro" not in text


def test_every_suite_has_a_committed_baseline():
    """``--check`` exits without a baseline, so a suite the gate offers
    needs its ``BENCH_<suite>.json``, recorded on that workload."""
    module = _load()
    for suite in module.SUITES:
        path = Path(module.ROOT, f"BENCH_{suite}.json")
        assert path.exists(), path
        assert json.loads(path.read_text())["header"]["workload"] == suite
