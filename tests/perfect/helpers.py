"""Shared checks every benchmark must satisfy."""

from repro.experiments.pipeline import run_all_configs
from repro.polaris.report import ConfigComparison
from repro.runtime.difftest import diff_test
from repro.runtime.interpreter import Interpreter


def executes(benchmark):
    """The benchmark runs to completion under the interpreter."""
    result = Interpreter(benchmark.program(),
                         inputs=list(benchmark.inputs)).run()
    assert result.stop_message is None or result.stop_message == ""
    assert result.output
    return result


def table2_row(benchmark):
    """Run the three configurations and compute the Table II fragments."""
    results = run_all_configs(benchmark)
    baseline = results["none"].parallel_origins()
    row = {}
    for kind in ("none", "conventional", "annotation"):
        row[kind] = ConfigComparison.against_baseline(
            baseline, results[kind].parallel_origins())
    row["lines"] = {k: r.code_lines for k, r in results.items()}
    row["results"] = results
    return row


def parallel_output_correct(benchmark, config_result):
    """Differential test of a configuration's final program."""
    result = diff_test(config_result.program,
                       inputs=list(benchmark.inputs))
    assert result.passed, (benchmark.name, config_result.config,
                           result.explain())
    return result
