"""``run.py --write-expected``: cross-check, then rewrite the references.

A reference is written only after it agreed with something the measured
path did not produce:

(a) the rendered Table II equals the hand-kept ``benchmarks/out/table2.txt``;
(b) every corpus program's verdicts and diagnostics equal its
    ``tests/fortran/corpus/*.expect.json``;
(c) every pool program passes ``fuzz.run_oracle`` (executed by the
    tree-walking interpreter) in all three configurations and every
    PERFECT program in the ``annotation`` one, and no PERFECT loop is
    parallel under inferred annotations that Table II's hand annotations
    leave serial;
(d) every Figure 20 cell is computed under the *tree* backend and the
    figure rendered from those cells equals ``benchmarks/out/figure20.txt``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from . import REPO_ROOT, expected


def _hand_kept(name: str) -> str:
    with open(os.path.join(REPO_ROOT, "benchmarks", "out", name),
              encoding="utf-8") as fh:
        return fh.read()


def _require(problems: List[str], what: str) -> None:
    if problems:
        raise SystemExit(f"--write-expected: {what} failed:\n  "
                         + "\n  ".join(problems[:20]))
    print(f"  ok: {what}")


def write_all(expected_dir: str) -> None:
    from repro.experiments.pipeline import Config, run_config
    from repro.fortran.fixedform import parallelize_source
    from repro.fuzz import CONFIG_KINDS, run_oracle
    from repro.perfect import all_benchmarks

    from .workloads import figure20, parallelize, service, table2

    print("table2 ...")
    table2_ref = table2.reference()
    rendered = table2_ref.pop("rendered")
    _require([] if rendered.strip() == _hand_kept("table2.txt").strip()
             else ["rendered table differs"],
             "(a) Table II equals benchmarks/out/table2.txt")

    print("parallelize ...")
    parallelize_ref = parallelize.reference()
    inputs = parallelize_ref["inputs"]
    problems = []
    for op_id in sorted(i for i in inputs if i.startswith("corpus/")):
        path = os.path.join(parallelize.CORPUS_DIR,
                            op_id.split("/", 1)[1][:-2] + ".expect.json")
        with open(path, encoding="utf-8") as fh:
            want = json.load(fh)
        # the hand-kept file through the same summary as a measured op
        want_summary = parallelize.summarize(
            {**want, "code_lines": None, "output": ""})
        got = inputs[op_id]["summary"]
        if any(got[key] != want_summary[key] for key in
               ("loops", "diagnostics", "parallel_count", "units")):
            problems.append(op_id)
    _require(problems, "(b) corpus verdicts equal *.expect.json")

    problems = []
    oracle_inputs: Dict[str, Any] = {}
    for dialect in parallelize.DIALECTS:
        for pool_id in parallelize.pool_ids(dialect):
            program = parallelize.pool_program(pool_id)
            oracle_inputs[pool_id] = (program.sources, program.annotations,
                                      CONFIG_KINDS)
    for b in all_benchmarks():
        # the workload's own path only: the oracle's ``conventional``
        # configuration does not know the benchmarks' library units
        oracle_inputs[f"perfect/{b.name}"] = (dict(b.sources), b.annotations,
                                              ("annotation",))
        inferred = {d["origin"]
                    for d in parallelize_source(dict(b.sources))["loops"]
                    if d["parallel"] and d["origin"]}
        hand = run_config(b, Config("annotation")).report.parallel_origins()
        if not inferred <= hand:
            problems.append(f"perfect/{b.name}: inferred annotations "
                            f"parallelize {sorted(inferred - hand)}, which "
                            f"the hand annotations leave serial")
    for op_id, (sources, annotations, configs) in sorted(
            oracle_inputs.items()):
        verdict = run_oracle(sources, annotations, configs=configs)
        if not verdict.passed:
            problems.append(f"{op_id}: {verdict.describe()}")
    _require(problems, "(c) every pool and PERFECT program passes "
                       "fuzz.run_oracle; inferred verdicts stay within "
                       "the hand-annotated ones")

    print("figure20 under the tree backend (about two minutes) ...")
    figure20_ref, figure = figure20.reference()
    _require([] if figure.strip() == _hand_kept("figure20.txt").strip()
             else ["rendered figure differs"],
             "(d) Figure 20 from tree-backend cells equals "
             "benchmarks/out/figure20.txt")

    service_ref = service.reference(table2_ref, parallelize_ref)
    for name, data in (("table2", table2_ref),
                       ("parallelize", parallelize_ref),
                       ("figure20", figure20_ref),
                       ("service", service_ref)):
        print("wrote", expected.save(name, data, expected_dir))

