"""``parallelize`` — the user-facing compile path on arbitrary input.

Op = one ``parallelize_source({file: text})`` (tolerant parse, inferred
annotations, inline, Polaris under a ``Tracer``, reverse, explanations,
unparse) over 115 programs per pass: the 23 recovery/dialect programs of
``tests/fortran/corpus``, the 12 PERFECT sources *without* their hand
annotations, and 40 + 40 generated programs (core grammar, and the
larger ``extended`` dialect).

The generated programs are a seeded *stratified* draw from a pool of
160 + 160 (``fuzz.generate`` of fixed pool seeds): each dialect's pool is
sorted by source lines and cut into 40 strata of four, and the seed picks
one program per stratum.  Every seed therefore gets different programs
of the same size profile — a fresh unstratified draw moved ``pass_s`` by
6 % and ``op_ms_p50`` by 10 % between seeds, which is the inputs, not the
program — and every pool member has a committed, oracle-checked
reference.
"""

from __future__ import annotations

import glob
import os
import random
from typing import Any, Dict, List

from repro.annotations import AnnotationInliner, ReverseInliner
from repro.annotations.infer import infer_annotations
from repro.fortran.fixedform import parallelize_source, parse_source_tolerant
from repro.fuzz import GeneratorOptions, derive_seed, generate
from repro.perfect import all_benchmarks
from repro.polaris import Polaris
from repro.program import Program
from repro.trace import Tracer

from .. import REPO_ROOT, expected
from ..timing import Clock
from ..workload import DEFAULT_SEED, Workload
from .table2 import dep_cache_hit_ratio, polaris_counts, ratio

CORPUS_DIR = os.path.join(REPO_ROOT, "tests", "fortran", "corpus")
GENERATED_PER_DIALECT = 40
STRATUM_SIZE = 4
#: dialect -> (generator options, first pool index)
DIALECTS = {
    "core": (GeneratorOptions(), 0),
    "ext": (GeneratorOptions(max_blocks=24, max_callees=6,
                             dialect="extended"), 1000),
}


def corpus_inputs() -> Dict[str, Dict[str, str]]:
    inputs = {}
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.f"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            inputs[f"corpus/{name}"] = {name: fh.read()}
    return inputs


def pool_ids(dialect: str) -> List[str]:
    return [f"{dialect}/{i:03d}"
            for i in range(GENERATED_PER_DIALECT * STRATUM_SIZE)]


def pool_program(pool_id: str):
    """The pool member ``<dialect>/<index>`` (a ``FuzzProgram``)."""
    dialect, index = pool_id.split("/")
    options, first = DIALECTS[dialect]
    return generate(derive_seed(DEFAULT_SEED, first + int(index)), options)


def draw(seed: int, lines: Dict[str, int]) -> List[str]:
    """The seed's stratified draw: per dialect, the pool sorted by
    source lines (``lines``: pool id -> line count), cut into strata of
    ``STRATUM_SIZE``, one member of each."""
    chosen = []
    for dialect in DIALECTS:
        rng = random.Random(f"parallelize-draw:{seed}:{dialect}")
        ranked = sorted(pool_ids(dialect), key=lambda i: (lines[i], i))
        for k in range(0, len(ranked), STRATUM_SIZE):
            chosen.append(rng.choice(ranked[k:k + STRATUM_SIZE]))
    return chosen


def fixed_inputs() -> Dict[str, Dict[str, str]]:
    """The inputs every seed shares: the corpus and the PERFECT sources."""
    inputs = corpus_inputs()
    for b in all_benchmarks():
        inputs[f"perfect/{b.name}"] = dict(b.sources)
    return inputs


def summarize(result: Dict[str, Any]) -> Dict[str, Any]:
    """What a ``parallelize_source`` op is checked on."""
    return {
        "parallel_count": result["parallel_count"],
        # one word per loop and per diagnostic keeps 355 references small
        "loops": " ".join(
            f"{d['unit']}.{d['var']}="
            f"{'parallel' if d['parallel'] else d['reason']}"
            for d in result["loops"]),
        "diagnostics": " ".join(f"{d['code']}@{d['line']}:{d['severity']}"
                                for d in result["diagnostics"]),
        "units": " ".join(result["units"]),
        "code_lines": result["code_lines"],
        "output_sha256": expected.sha256_text(result["output"]),
    }


class Parallelize(Workload):
    name = "parallelize"
    ops_per_pass = 23 + 12 + 2 * GENERATED_PER_DIALECT

    def prepare(self) -> None:
        reference = expected.load(self.name, self.expected_dir)["inputs"]
        self.inputs = fixed_inputs()
        lines = {i: reference[i]["lines"] for d in DIALECTS
                 for i in pool_ids(d)}
        for pool_id in draw(self.seed, lines):
            self.inputs[pool_id] = pool_program(pool_id).sources
        if len(self.inputs) != self.ops_per_pass:
            raise RuntimeError(f"{len(self.inputs)} inputs, expected "
                               f"{self.ops_per_pass}")
        #: a changed input has no valid reference: its ops fail
        self.expected: Dict[str, Any] = {
            op_id: (reference[op_id]["summary"]
                    if reference.get(op_id, {}).get("input_sha256")
                    == expected.sources_digest(sources) else None)
            for op_id, sources in self.inputs.items()}
        #: digest of the whole un-staged result, per input (what a
        #: staged op must reproduce)
        self.full_digest: Dict[str, str] = {}

    def _order(self, index: int):
        order = sorted(self.inputs)
        self.rng(index).shuffle(order)
        return order

    def run_pass(self, index: int, clock: Clock) -> None:
        for op_id in self._order(index):
            sources = self.inputs[op_id]
            result = self.attempt(
                clock, op_id, lambda: parallelize_source(dict(sources)))
            if result is None:
                continue
            self.full_digest[op_id] = expected.digest(result)
            self.expect(op_id, summarize(result), self.expected[op_id])

    def run_pass_staged(self, index: int, clock: Clock) -> None:
        for op_id in self._order(index):
            sources = self.inputs[op_id]
            result = self.attempt(
                clock, op_id, lambda: self._staged(clock, dict(sources)))
            if result is None:
                continue
            if expected.digest(result) != self.full_digest.get(op_id):
                self.fail(op_id, "staged result differs from "
                                 "parallelize_source's")
            self.expect(op_id, summarize(result), self.expected[op_id])

    def _staged(self, clock: Clock, sources: Dict[str, str]
                ) -> Dict[str, Any]:
        """``parallelize_source`` (its defaults: ``annotation`` config,
        inferred annotations, tolerant) re-driven through the layers'
        public calls."""
        diagnostics = []
        files = []
        for fname, text in sources.items():
            with clock.span("fortran.fixedform_parse"):
                source_file, diags = parse_source_tolerant(text, fname)
            files.append(source_file)
            diagnostics.extend(d.to_dict() for d in diags)
        program = Program(files, "parallelize")
        with clock.span("program.resolve"):
            program.resolve()
        with clock.span("annotations.infer"):
            inference = infer_annotations(program, hand=None)
        with clock.span("annotations.registry"):
            registry = inference.registry()
        with clock.span("annotations.inline"):
            inlined = AnnotationInliner(registry).run(program)
        tracer = Tracer(label="parallelize")
        with clock.span("polaris.run"):
            report = Polaris().run(program, tracer)
        with clock.span("annotations.reverse"):
            reverse = ReverseInliner(registry).run(program)
        loops = []
        with clock.span("trace.describe"):
            for decision in tracer.decisions:
                record = decision.to_dict()
                record["explanation"] = decision.describe()
                loops.append(record)
        with clock.span("fortran.unparse"):
            output = "".join(program.unparse().values())

        outcome = inference.counts()
        self.count("fortran.fixedform_diagnostics", len(diagnostics))
        self.count("annotations.inferred", outcome["inferred"])
        self.count("annotations.fallbacks", outcome["fallback"])
        self.count("annotations.sites_inlined", inlined.inlined_count)
        self.count("annotations.sites_reversed", reverse.reversed_count)
        self.count("fortran.unparse_lines", len(output.splitlines()))
        polaris_counts(self, report)
        return {
            "output": output,
            "code_lines": len(output.splitlines()),
            "diagnostics": diagnostics,
            "loops": loops,
            "parallel_count": report.parallel_count(),
            "config": "annotation",
            "annotations_mode": "inferred",
            "units": [u.name for u in program.units],
        }

    def derived(self, layer_s, counts):
        inferred = counts.get("annotations.inferred", 0)
        return {
            "analysis.dep_cache_hit_ratio": dep_cache_hit_ratio(counts),
            "annotations.infer_ok_ratio": ratio(
                inferred, inferred + counts.get("annotations.fallbacks", 0)),
            "annotations.reverse_ratio": ratio(
                counts.get("annotations.sites_reversed", 0),
                counts.get("annotations.sites_inlined", 0)),
        }


def reference() -> Dict[str, Any]:
    """References of the fixed inputs and of every pool member through
    the un-staged entry point (``--write-expected`` cross-checks them
    before saving)."""
    inputs = fixed_inputs()
    lines = {}
    for dialect in DIALECTS:
        for pool_id in pool_ids(dialect):
            program = pool_program(pool_id)
            inputs[pool_id] = program.sources
            lines[pool_id] = program.line_count()
    entries = {}
    for op_id, sources in inputs.items():
        entries[op_id] = {
            "input_sha256": expected.sources_digest(sources),
            "summary": summarize(parallelize_source(dict(sources)))}
        if op_id in lines:
            entries[op_id]["lines"] = lines[op_id]
    return {"workload": "parallelize", "pool_seed": DEFAULT_SEED,
            "inputs": entries}
