"""Verdicts of ``bench/compare.py``."""

import json

import compare


def test_verdicts_against_the_bound():
    a = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(a, [10.4, 10.5, 10.3], "lower", 0.10) == "same"
    assert compare.verdict(a, [12.0, 12.1, 11.9], "lower", 0.10) == "worse"
    assert compare.verdict(a, [8.0, 8.1, 7.9], "lower", 0.10) == "better"
    # direction: for a rate, more is better
    assert compare.verdict(a, [12.0, 12.1, 11.9], "higher", 0.10) == "better"
    assert compare.verdict(a, [8.0, 8.1, 7.9], "higher", 0.10) == "worse"


def test_wide_overlapping_spread_is_unresolved():
    a = [8.0, 10.0, 12.0, 14.0, 9.0]
    b = [11.0, 12.5, 13.0, 12.4, 9.5]
    assert compare.verdict(a, b, "lower", 0.10) == "unresolved"
    # every run of B worse than every run of A: resolved despite spread
    assert compare.verdict(a, [20.0, 21.0, 22.0], "lower", 0.10) == "worse"


def test_compare_reads_result_files_and_saved_output(tmp_path):
    spec = {"end_to_end": [{"name": "pass_s", "unit": "s",
                            "better": "lower", "bound": 0.10}]}

    def result(value):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"pass_s": {"value": value, "unit": "s"}}}

    for side, values in (("a", [1.0, 1.02, 0.98]), ("b", [1.5, 1.52, 1.49])):
        for i, value in enumerate(values):
            run = tmp_path / side / f"run{i}"
            run.mkdir(parents=True)
            if i == 0:   # a saved standard output: the result is the last line
                (run / "table2-0.txt").write_text(
                    "# header\n" + json.dumps(result(value)) + "\n")
            else:
                (run / "result.json").write_text(json.dumps(
                    {**result(value), "header": {"workload": "table2"}}))
    rows = compare.compare(str(tmp_path / "a"), str(tmp_path / "b"), spec)
    assert [(r[0], r[1], r[-1]) for r in rows] == [
        ("table2", "pass_s", "worse")]
