"""DYFESM: the paper's flagship scenario end-to-end."""

import pytest

from repro.perfect import get_benchmark
from tests.perfect.helpers import executes, parallel_output_correct, table2_row


@pytest.fixture(scope="module")
def bench():
    return get_benchmark("dyfesm")


@pytest.fixture(scope="module")
def row(bench):
    return table2_row(bench)


def test_executes(bench):
    result = executes(bench)
    assert len(result.output) == 1  # the checksum write


def test_clones_and_unparses_its_nine_units(bench):
    program = bench.program()
    twin = program.clone()
    assert len(twin.units) == 9 and twin.files == program.files
    assert "PROGRAM DYFESM" in "".join(twin.unparse().values())


def test_annotation_gains_element_loops(row):
    ann = row["annotation"]
    assert ann.par_extra >= 2   # the FSMP and ASSEM element loops
    assert ann.par_loss == 0


def test_conventional_gains_nothing_here(row):
    conv = row["conventional"]
    assert conv.par_extra < row["annotation"].par_extra


def test_fsmp_loop_serial_without_annotations(row):
    report = row["results"]["none"].report
    k = [v for v in report.verdicts
         if v.unit == "DYFESM" and v.var == "K"]
    assert k and all(not v.parallelized for v in k)
    assert all(v.reason == "call" for v in k)


def test_fsmp_excluded_by_conventional_policy(row):
    conv = row["results"]["conventional"].conventional_result
    fsmp_sites = [s for s in conv.sites if s.callee == "FSMP"]
    assert fsmp_sites and not fsmp_sites[0].inlined
    assert fsmp_sites[0].reason == "makes-calls"


def test_annotation_code_size_flat(row):
    # reverse inlining restores the source; only OMP lines remain
    lines = row["lines"]
    assert lines["annotation"] <= lines["none"] * 1.15


def test_annotation_output_correct(bench, row):
    parallel_output_correct(bench, row["results"]["annotation"])


def test_none_config_output_correct(bench, row):
    parallel_output_correct(bench, row["results"]["none"])


def test_conventional_output_correct(bench, row):
    parallel_output_correct(bench, row["results"]["conventional"])
