#!/usr/bin/env python
"""Frontend-conformance smoke test (the ``frontend-conformance`` CI
job, runnable locally).

Replays the dialect corpus under ``tests/fortran/corpus/``: every
``NAME.f`` is paired with ``NAME.expect.json`` recording the recovery
diagnostics and per-loop parallelization verdicts the tolerant
fixed-form frontend must produce.  For each program the smoke asserts:

1. **never-uncaught**: ``parse_source_tolerant`` returns a tree — it
   must not raise for any malformed input;
2. **diagnostics match**: the recorded ``(code, line, severity)``
   triples equal the committed expectations, in order;
3. **verdicts match**: the per-loop ``(unit, var, parallel, reason)``
   records and the parallel-loop count equal the expectations;
4. **round-trip fixpoint**: parse -> unparse -> reparse -> unparse
   reaches a textual fixpoint (the second unparse equals the first).

It then replays ``tests/fortran/regressions/`` — one ``NAME.f`` per
input that once crashed or hung a parser, no expectation file — and
asserts that ``parse_source_tolerant`` returns and that ``parse_source``
returns or raises a ``ReproError``, nothing else.

Regenerate expectations after an intentional frontend change with
``--update`` and review the diff.

Usage: PYTHONPATH=src python scripts/frontend_smoke.py [--update]
"""

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import ReproError  # noqa: E402
from repro.fortran.fixedform import parallelize_source, parse_source_tolerant  # noqa: E402
from repro.fortran.parser import parse_source  # noqa: E402
from repro.program import Program  # noqa: E402

# The frozen benchmark (bench/benchlib/workloads/parallelize.py) globs
# CORPUS/*.f and holds each file to bench/expected/parallelize.json: a
# file added there fails the benchmark.  New crash inputs go to
# REGRESSIONS.
CORPUS = os.path.join(os.path.dirname(__file__), "..",
                      "tests", "fortran", "corpus")
REGRESSIONS = os.path.join(os.path.dirname(__file__), "..",
                           "tests", "fortran", "regressions")

#: minimum corpus size the CI gate insists on
MIN_PROGRAMS = 15


def _simplify(result):
    return {
        "diagnostics": [{"code": d["code"], "line": d["line"],
                         "severity": d["severity"]}
                        for d in result["diagnostics"]],
        "loops": [{"unit": l["unit"], "var": l["var"],
                   "parallel": l["parallel"], "reason": l["reason"]}
                  for l in result["loops"]],
        "parallel_count": result["parallel_count"],
        "units": result["units"],
    }


def _roundtrip(name: str, text: str, failures) -> None:
    sf, _ = parse_source_tolerant(text, name)
    prog = Program([sf], "roundtrip")
    prog.resolve()
    once = "".join(prog.unparse().values())
    sf2, _ = parse_source_tolerant(once, name)
    prog2 = Program([sf2], "roundtrip")
    prog2.resolve()
    twice = "".join(prog2.unparse().values())
    if once != twice:
        failures.append(f"{name}: parse->unparse->reparse is not a "
                        f"fixpoint")


def check_program(path: str, update: bool, failures) -> None:
    name = os.path.basename(path)
    expect_path = path[:-2] + ".expect.json"
    with open(path) as fh:
        text = fh.read()

    try:
        result = parallelize_source(
            {name: text}, config="annotation", annotations_mode="inferred")
    except Exception as exc:  # noqa: BLE001 - the property under test
        failures.append(f"{name}: uncaught {type(exc).__name__}: {exc}")
        return
    got = _simplify(result)

    if update:
        expect = dict(got)
        expect["config"] = "annotation"
        expect["annotations_mode"] = "inferred"
        with open(expect_path, "w") as fh:
            json.dump(expect, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  {name}: expectations updated")
    else:
        if not os.path.exists(expect_path):
            failures.append(f"{name}: missing {expect_path}")
            return
        with open(expect_path) as fh:
            expect = json.load(fh)
        for key in ("diagnostics", "loops", "parallel_count", "units"):
            if got[key] != expect[key]:
                failures.append(
                    f"{name}: {key} mismatch\n"
                    f"    expected: {expect[key]}\n"
                    f"    got:      {got[key]}")

    _roundtrip(name, text, failures)


def check_regression(path: str, failures) -> None:
    name = os.path.basename(path)
    with open(path) as fh:
        text = fh.read()
    try:
        parse_source_tolerant(text, name)
    except Exception as exc:  # noqa: BLE001 - the property under test
        failures.append(f"{name}: tolerant parse raised "
                        f"{type(exc).__name__}: {exc}")
    try:
        parse_source(text, name)
    except ReproError:
        pass
    except Exception as exc:  # noqa: BLE001 - the property under test
        failures.append(f"{name}: strict parse raised "
                        f"{type(exc).__name__} (not a ReproError): {exc}")


def run(update: bool) -> None:
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.f")))
    if len(paths) < MIN_PROGRAMS:
        raise SystemExit(f"frontend smoke FAILED: corpus has only "
                         f"{len(paths)} programs (< {MIN_PROGRAMS})")
    failures = []
    for path in paths:
        check_program(path, update, failures)
    regressions = sorted(glob.glob(os.path.join(REGRESSIONS, "*.f")))
    for path in regressions:
        check_regression(path, failures)
    if failures:
        raise SystemExit("frontend smoke FAILED:\n  "
                         + "\n  ".join(failures))
    print(f"frontend smoke passed: {len(paths)} corpus programs, "
          f"diagnostics + verdicts match, round-trip fixpoint holds; "
          f"{len(regressions)} regression inputs parse or fail cleanly")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--update", action="store_true",
                        help="rewrite the .expect.json files from the "
                             "current frontend behavior")
    ns = parser.parse_args()
    run(ns.update)
