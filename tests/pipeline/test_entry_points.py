"""Every entry point is a shell over the one core, and says so the same
way: the file-based entry point and the experiments harness produce the
same source, unknown names are rejected identically everywhere, and the
structure that let five copies drift cannot regrow."""

import ast
import os

import pytest

from repro.experiments.pipeline import (CONFIGS, Config, run_config,
                                        summarize_result)
from repro.fortran.fixedform import parallelize_source
from repro.perfect import all_benchmarks, get_benchmark
from repro.pipeline import parallelize_program
from repro.service.execution import execute_payload

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")

TOY = {"t.f": """\
      PROGRAM MAIN
      REAL A(16)
      DO 10 I = 1, 16
         A(I) = I
 10   CONTINUE
      WRITE(6,*) A(3)
      END
"""}


# ---------------------------------------------------------------------------
# the entry points agree
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", CONFIGS)
@pytest.mark.parametrize("bench", all_benchmarks(),
                         ids=[b.name for b in all_benchmarks()])
def test_file_entry_point_matches_the_harness(bench, kind):
    """``parallelize_source`` over a benchmark's files and hand
    annotations emits the source ``run_config`` does (``output`` only:
    the two ``parallel_count``s follow different counting protocols)."""
    from_files = parallelize_source(
        bench.sources, config=kind, annotations_mode="hand",
        annotations_text=bench.annotations, tolerant=False)["output"]
    harness = summarize_result(run_config(bench, Config(kind)))["output"]
    if (bench.name, kind) == ("MG3D", "conventional"):
        # the one documented exception: only a Benchmark can say that
        # CFFTZ is a library unit whose source the compiler lacks; a
        # file-based entry point has no such input, and inlines it
        assert bench.library_units == {"CFFTZ"}
        assert from_files != harness
    else:
        assert from_files == harness


def test_result_dict_keeps_exactly_its_eight_keys():
    result = parallelize_source(dict(TOY))
    assert sorted(result) == [
        "annotations_mode", "code_lines", "config", "diagnostics",
        "loops", "output", "parallel_count", "units"]
    # records of a file run are not stamped with a benchmark/config
    assert {(d["benchmark"], d["config"]) for d in result["loops"]} \
        == {("", "")}


# ---------------------------------------------------------------------------
# unknown names never run silently
# ---------------------------------------------------------------------------

class TestUnknownNamesAreRejected:
    def test_parallelize_source_config(self):
        with pytest.raises(ValueError, match="annotatoin.*expected one of"):
            parallelize_source(dict(TOY), config="annotatoin")

    def test_parallelize_source_annotations_mode(self):
        with pytest.raises(ValueError, match="infered.*expected one of"):
            parallelize_source(dict(TOY), annotations_mode="infered")

    def test_config_is_where_names_are_checked(self):
        with pytest.raises(ValueError, match="unknown config"):
            Config("annotatoin")
        with pytest.raises(ValueError, match="unknown annotations mode"):
            Config("annotation", annotations="infered")

    @pytest.mark.parametrize("kind", ["sources", "parallelize"])
    def test_service_payloads(self, kind):
        payload = {"kind": kind, "sources": dict(TOY)}
        with pytest.raises(ValueError, match="unknown config"):
            execute_payload(dict(payload, config="annotatoin"))
        with pytest.raises(ValueError, match="unknown annotations mode"):
            execute_payload(dict(payload, annotations_mode="infered"))


# ---------------------------------------------------------------------------
# the core
# ---------------------------------------------------------------------------

def test_unavailable_units_are_not_inlined():
    bench = get_benchmark("mg3d")
    free = parallelize_program(bench.program(), Config("conventional"))
    held = parallelize_program(bench.program(), Config("conventional"),
                               unavailable=bench.library_units)
    assert free.output != held.output
    assert "no-source" in held.conventional_result.reasons()
    assert "no-source" not in free.conventional_result.reasons()


def test_inference_is_its_own_phase():
    bench = get_benchmark("trfd")
    result = parallelize_program(
        bench.program(), Config("annotation", annotations="inferred"))
    assert {"infer", "inline", "reverse", "normalize", "summaries",
            "dependence"} <= set(result.report.timings)


# ---------------------------------------------------------------------------
# the structure cannot regrow
# ---------------------------------------------------------------------------

PIPELINE_STAGES = {"Polaris", "ReverseInliner", "AnnotationInliner",
                   "ConventionalInliner", "DemandInliner",
                   "infer_annotations"}
#: the packages that define the stages (and may compose them)
DEFINING_PACKAGES = ("annotations", "inlining", "polaris")
#: modules that timed phases by hand beside an identically named span
FORMERLY_HAND_TIMED = ("experiments/pipeline.py", "polaris/driver.py",
                       "experiments/figure20.py", "cli.py",
                       "fortran/fixedform/pipeline.py", "pipeline.py")


def _modules():
    for directory, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as fh:
                    yield (os.path.relpath(path, SRC).replace(os.sep, "/"),
                           ast.parse(fh.read()))


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            yield fn.id if isinstance(fn, ast.Name) else \
                fn.attr if isinstance(fn, ast.Attribute) else None


def test_exactly_one_module_builds_the_pipeline():
    callers = {stage: set() for stage in PIPELINE_STAGES}
    for module, tree in _modules():
        if module.split("/")[0] in DEFINING_PACKAGES:
            continue
        for name in _called_names(tree):
            if name in callers:
                callers[name].add(module)
    assert callers == {stage: {"pipeline.py"} for stage in PIPELINE_STAGES}


def test_no_hand_placed_phase_timers():
    for module, tree in _modules():
        if module in FORMERLY_HAND_TIMED:
            assert "perf_counter" not in set(_called_names(tree)), module
