"""The golden decision table: every loop decision record the analyzer
makes over a fixed set of programs, byte for byte.

The table under ``golden/`` was recorded before the legality checks,
the side-effect summaries and the call graph were moved onto the one
access walk (``analysis.defuse.collect_accesses``), so it holds the
answers of the re-walking implementation they replaced: blocker order,
witness text and dependence-test counts included.  A refactor of the
analyzer must leave it unchanged; a change that is meant to move a
verdict re-records it and shows the moved records in ``git diff``.

Three groups, each run under the three configurations:

* ``perfect`` — the twelve PERFECT substitutes, as Table II runs them;
* ``corpus`` — the frontend corpus files the strict parser accepts;
* ``generated`` — 40 core and 40 extended-dialect fuzz programs
  (``generate(derive_seed(2011, i))``) with their derived annotations.

``python tests/polaris/test_golden_decisions.py`` rewrites the table
from the analyzer under ``PYTHONPATH``; review the diff.
"""

import glob
import json
import os

import pytest

from repro.annotations.registry import AnnotationRegistry
from repro.errors import ReproError
from repro.experiments.pipeline import run_config
from repro.fuzz.generator import GeneratorOptions, derive_seed, generate
from repro.perfect.suite import all_benchmarks
from repro.pipeline import CONFIGS, Config, parallelize_program
from repro.program import Program

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "fortran", "corpus")
SEED = 2011
GENERATED = 40


def _lines(case, report):
    return [json.dumps([case, d.to_dict()]) for d in report.verdicts]


def perfect_rows():
    rows = []
    for bench in all_benchmarks():
        for kind in CONFIGS:
            result = run_config(bench, Config(kind))
            rows += _lines(f"{bench.name}/{kind}", result.report)
    return rows


def _program_rows(name, program_of, annotations):
    rows = []
    for kind in CONFIGS:
        registry = AnnotationRegistry.from_text(annotations)
        result = parallelize_program(program_of(), Config(kind), registry)
        rows += _lines(f"{name}/{kind}", result.report)
    return rows


def corpus_rows():
    rows = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.f"))):
        name = os.path.basename(path)
        with open(path) as f:
            text = f.read()
        try:
            Program.from_sources({name: text}, name)
        except ReproError:
            continue  # only the files the strict parser accepts
        rows += _program_rows(
            name, lambda: Program.from_sources({name: text}, name), "")
    return rows


def generated_rows():
    rows = []
    for dialect in ("core", "extended"):
        options = GeneratorOptions(dialect=dialect)
        for i in range(GENERATED):
            fuzz = generate(derive_seed(SEED, i), options)
            rows += _program_rows(f"{dialect}-{i}", fuzz.program,
                                  fuzz.annotations)
    return rows


GROUPS = {"perfect": perfect_rows, "corpus": corpus_rows,
          "generated": generated_rows}


def _path(group):
    return os.path.join(GOLDEN, f"{group}.jsonl")


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_decisions_match_the_golden_table(group):
    with open(_path(group)) as f:
        golden = f.read().splitlines()
    rows = GROUPS[group]()
    assert len(rows) == len(golden)
    for got, want in zip(rows, golden):
        assert got == want


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for group, rows_of in GROUPS.items():
        rows = rows_of()
        with open(_path(group), "w") as f:
            f.write("".join(row + "\n" for row in rows))
        print(f"{group}: {len(rows)} records")
