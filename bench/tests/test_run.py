"""``bench/run.py`` end to end, on the quickest workload (``table2``)."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, REPO_ROOT

RUN = os.path.join(BENCH_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def run(tmp_path, *args):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "table2", "--seconds", "1",
         "--out", str(tmp_path / "out"), *args],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done, lines, json.loads(lines[-1])


def printed_names(lines):
    return {line.split()[0] for line in lines
            if line and not line.startswith(("#", " ", "{", "FAILED"))}


def test_benchmark_json_names_and_shape():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert s["paths"] == ["bench"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in s[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in s["workloads"]] == [
        "table2", "parallelize", "figure20", "service"]
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in s["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in s["per_layer"])


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    done, lines, result = run(tmp_path, "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 100
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(declared) <= printed_names(lines)
    saved = json.load(open(tmp_path / "out" / "result.json"))
    assert saved["metrics"] == result["metrics"]
    assert saved["diagnostics"]["ops_timed"] >= 100
    assert saved["header"]["seed"] == 2011


def test_traced_runs_print_every_layer_and_repeat_every_count(tmp_path):
    from repro.trace import validate_chrome_trace
    done, lines, first = run(tmp_path, "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    assert set(declared) <= printed_names(lines)
    assert first["metrics"]["bench.trace_coverage_ratio"]["value"] >= 0.9
    assert first["metrics"]["polaris.run_s"]["value"] > 0
    # a layer the workload never enters is reported as doing nothing
    assert first["metrics"]["runtime.executions"]["value"] == 0
    trace = json.load(open(tmp_path / "out" / "trace.json"))
    assert validate_chrome_trace(trace) == []
    assert any(e["name"] == "polaris.run" for e in trace["traceEvents"])

    _done, _lines, second = run(tmp_path, "--trace", "1", "--seed", "9")
    counts = [name for name, unit in declared.items() if unit == "count"]
    assert counts
    assert all(first["metrics"][n]["value"] == second["metrics"][n]["value"]
               for n in counts)


def test_a_corrupted_reference_fails_the_run(tmp_path):
    corrupted = tmp_path / "expected"
    shutil.copytree(os.path.join(BENCH_DIR, "expected"), corrupted)
    path = corrupted / "table2.json"
    reference = json.load(open(path))
    # flip one verdict: a loop the reference calls parallel becomes serial
    reference["inputs"]["ADM"]["configs"]["annotation"][
        "parallel_origins"].pop()
    path.write_text(json.dumps(reference))
    done, _lines, result = run(tmp_path, "--trace", "0",
                               "--expected-dir", str(corrupted))
    assert done.returncode != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "FAILED table2/ADM/annotation" in done.stdout


def test_a_changed_input_digest_fails_its_ops(tmp_path):
    corrupted = tmp_path / "expected"
    shutil.copytree(os.path.join(BENCH_DIR, "expected"), corrupted)
    path = corrupted / "table2.json"
    reference = json.load(open(path))
    reference["inputs"]["QCD"]["input_sha256"] = "0" * 64
    path.write_text(json.dumps(reference))
    done, _lines, result = run(tmp_path, "--trace", "0",
                               "--expected-dir", str(corrupted))
    assert done.returncode != 0
    assert result["failed"] >= 3
    assert "FAILED table2/QCD/none" in done.stdout


def test_refuses_the_disk_cache(tmp_path):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "table2", "--seconds", "1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=60,
        env={**os.environ, "REPRO_DISK_CACHE": "1"})
    assert done.returncode != 0
    assert "REPRO_DISK_CACHE" in done.stderr
    assert not done.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_server_children_are_reaped(tmp_path):
    from benchlib.procs import Server, _group_running
    from repro.service.client import ServiceClient
    server = Server(["serve", "--jobs", "1"], str(tmp_path), "daemon")
    client = ServiceClient(server.host, server.port)
    try:
        assert client.submit({"kind": "probe", "probe": "echo",
                              "value": 1})["result"] == {"echo": 1}
        assert server.peak_rss_mb() > 1
        assert server.process.pid in server.tree()
    finally:
        server.stop(client.shutdown)
    assert server.process.poll() is not None
    assert not _group_running(server.process.pid)
