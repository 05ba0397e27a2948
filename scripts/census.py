#!/usr/bin/env python
"""Knock-out census: does anything notice each analyzer component?

Every row of :data:`COMPONENTS` names one component of the analyzer,
the normaliser, the reverse matcher or the conventional inliner's
refusal list, and a ``mock.patch`` that knocks it out: a dependence
test that never disproves, a rewrite that does nothing, a privatization
or reduction class that is never granted, a matcher rule that never
matches, a refusal that is never given.  The census runs

* PERFECT x {none, conventional, annotation hand/inferred/demand},
* the frontend corpus (``tests/fortran/corpus/*.f``, tolerant parse),
* the census pins (``tests/polaris/census/*.f``, each with its
  optional ``.ann``), and
* a fixed range of generated programs (core and extended dialect),

under the same five configurations, once as they are and once per
knock-out, and counts for each component the parallel loops lost, the
loops gained and the outputs changed (an exception counts as a changed
output).  The first pass also records which runs reach each component,
and a knock-out re-runs only those: a run that never reaches a
component cannot change under its knock-out.

A row of zeros is a component nothing notices.  For each such row the
census also runs tier-1 (``pytest.main``) under the knock-out and notes
whether it passes, then exits 1: the component is either deleted or
given a pin that shows what it is for.

The table replaces the block between the census markers in
EXPERIMENTS.md; two runs write the same table.

Usage: PYTHONPATH=src python scripts/census.py
"""

import dataclasses
import glob
import os
import sys
import time
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)
from unittest import mock

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.analysis.privatization import ScalarClass  # noqa: E402
from repro.annotations.registry import AnnotationRegistry  # noqa: E402
from repro.experiments.pipeline import run_config  # noqa: E402
from repro.fortran.fixedform.pipeline import parallelize_files  # noqa: E402
from repro.fuzz.generator import (GeneratorOptions, derive_seed,  # noqa: E402
                                  generate)
from repro.perfect.suite import all_benchmarks  # noqa: E402
from repro.pipeline import Config, parallelize_program  # noqa: E402

EXPERIMENTS = os.path.join(ROOT, "EXPERIMENTS.md")
BEGIN = "<!-- census:begin -->"
END = "<!-- census:end -->"
CORPUS = os.path.join(ROOT, "tests", "fortran", "corpus")
PINS = os.path.join(ROOT, "tests", "polaris", "census")
SEED = 2011
#: generated programs per dialect
GENERATED = 60
CONFIGS = (("none", "hand"), ("conventional", "hand"),
           ("annotation", "hand"), ("annotation", "inferred"),
           ("annotation", "demand"))
CONFIG_NAMES = ("none", "conventional", "hand", "inferred", "demand")

#: the run in progress, for the reach probes
_current: List[str] = [""]


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

class Component(NamedTuple):
    family: str
    name: str
    #: the patched attribute, ``module.attr`` or ``module.Class.attr``
    target: str
    #: ``knock(original) -> replacement``
    knock: Callable
    #: ``reaches(args, result) -> bool``: would the knock-out answer
    #: differently on this call?  None: every call reaches it
    reaches: Optional[Callable] = None


def _always(answer):
    return lambda original: lambda *args, **kwargs: answer


def _noop(original):
    return lambda *args, **kwargs: None


def _demote_scalars(cls):
    """``scan_body`` with every scalar of class ``cls`` read-first."""
    def knock(original):
        def scan_body(body, table):
            facts = original(body, table)
            facts.scalars = {
                n: ScalarClass.READ_FIRST if c is cls else c
                for n, c in facts.scalars.items()}
            return facts
        return scan_body
    return knock


def _has_scalar(cls):
    return lambda args, facts: cls in facts.scalars.values()


def _drop_reduction(op):
    """``scan_body`` recognizing no ``op`` reduction."""
    def knock(original):
        def scan_body(body, table):
            facts = original(body, table)
            facts.reductions = {v: o for v, o in facts.reductions.items()
                                if o != op}
            return facts
        return scan_body
    return knock


def _has_reduction(op):
    return lambda args, facts: op in facts.reductions.values()


def _no_do_vars(original):
    def blockers(self, info, acc, private, red_clauses):
        acc = dataclasses.replace(acc, do_vars=set())
        return original(self, info, acc, private, red_clauses)
    return blockers


def _in_order(original):
    def _backtrack(self, template, observed, ti, used, env):
        return all(self.match_stmt(t, o, env)
                   for t, o in zip(template[ti:], observed[ti:]))
    return _backtrack


def _keep_directives(original):
    return lambda body: (list(body), 0)


def _has_directive(args, result):
    return result[1] > 0


def _without(reason):
    """``InlinePolicy.refusals`` that never gives ``reason``."""
    def knock(original):
        def refusals(self, *args):
            return (r for r in original(self, *args) if r != reason)
        return refusals
    return knock


def _refuses_first(reason):
    def reaches(args, result):
        return result[:1] == [reason]
    return reaches


_DEP = "repro.analysis.dependence.DependenceTester."
_NORM = "repro.analysis.normalize."
_PAR = "repro.polaris.parallelizer."
_REV = "repro.annotations.reverse."
_REFUSALS = "repro.inlining.heuristics.InlinePolicy.refusals"

COMPONENTS: Tuple[Component, ...] = (
    Component("dependence test", "ZIV", _DEP + "_ziv", _always(True)),
    Component("dependence test", "GCD", _DEP + "_gcd", _always(True)),
    Component("dependence test", "Banerjee", _DEP + "_banerjee",
              _always(True)),
    Component("normaliser", "parameter propagation",
              _NORM + "propagate_parameters", _noop),
    Component("normaliser", "induction substitution",
              _NORM + "_substitute_inductions_in",
              lambda original: lambda body, table: body),
    Component("normaliser", "forward substitution",
              _NORM + "forward_substitute_block", _noop),
    Component("privatization", "write-first scalars", _PAR + "scan_body",
              _demote_scalars(ScalarClass.WRITE_FIRST),
              _has_scalar(ScalarClass.WRITE_FIRST)),
    Component("privatization", "inner DO indices", _PAR
              + "LegalityAnalyzer.blockers", _no_do_vars),
    Component("privatization", "array kill analysis",
              "repro.analysis.privatization.BodyFacts.privatizable",
              _always(False)),
    Component("privatization", "capture arrays", _PAR + "is_capture_array",
              _always(False), lambda args, hit: hit),
    Component("reduction", "+", _PAR + "scan_body", _drop_reduction("+"),
              _has_reduction("+")),
    Component("reduction", "*", _PAR + "scan_body", _drop_reduction("*"),
              _has_reduction("*")),
    Component("reduction", "MAX", _PAR + "scan_body",
              _drop_reduction("MAX"), _has_reduction("MAX")),
    Component("reduction", "MIN", _PAR + "scan_body",
              _drop_reduction("MIN"), _has_reduction("MIN")),
    Component("reverse matcher", "directive unwrap", _REV + "_strip_omp",
              _keep_directives, _has_directive),
    Component("reverse matcher", "statement reordering",
              _REV + "_Matcher._backtrack", _in_order),
    Component("reverse matcher", "array pattern",
              _REV + "_Matcher._match_array_pattern", _always(False)),
) + tuple(
    Component("inliner refusal", reason, _REFUSALS, _without(reason),
              _refuses_first(reason))
    for reason in ("no-source", "not-in-loop", "function", "too-large",
                   "makes-calls", "io", "mid-return", "save", "goto",
                   "unanalyzable", "equivalence", "alternate-return"))


def _probe(component: Component, reach: Set[str]):
    """A patch that records the runs reaching ``component`` and
    otherwise behaves as the original."""
    def wrap(original):
        def probe(*args, **kwargs):
            result = original(*args, **kwargs)
            lazy = isinstance(result, Iterator)
            if lazy:  # inspected as a list, handed on as an iterator
                result = list(result)
            if component.reaches is None \
                    or component.reaches(args, result):
                reach.add(_current[0])
            return iter(result) if lazy else result
        return probe
    return wrap


def _patch(component: Component, make: Callable):
    module, _, attr = component.target.rpartition(".")
    owner_path, owner_attr = module, None
    try:
        __import__(module)
    except ImportError:  # module.Class.attr
        owner_path, _, owner_attr = module.rpartition(".")
        __import__(owner_path)
    owner = sys.modules[owner_path]
    if owner_attr is not None:
        owner = getattr(owner, owner_attr)
    return mock.patch.object(owner, attr, make(getattr(owner, attr)))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def inputs() -> List[Tuple[str, Callable]]:
    """``(key, run)`` per census run, in a fixed order; ``run()``
    returns a :class:`~repro.pipeline.PipelineResult`."""
    out: List[Tuple[str, Callable]] = []
    for bench in all_benchmarks():
        for (kind, mode), cname in zip(CONFIGS, CONFIG_NAMES):
            out.append((f"PERFECT {bench.name}/{cname}",
                        lambda b=bench, k=kind, m=mode:
                        run_config(b, Config(k, annotations=m))))
    for directory, label in ((CORPUS, "corpus"), (PINS, "pin")):
        for path in sorted(glob.glob(os.path.join(directory, "*.f"))):
            name = os.path.basename(path)
            with open(path) as f:
                text = f.read()
            annotations = ""
            if os.path.exists(path[:-2] + ".ann"):
                with open(path[:-2] + ".ann") as f:
                    annotations = f.read()
            for (kind, mode), cname in zip(CONFIGS, CONFIG_NAMES):
                out.append((f"{label} {name}/{cname}",
                            lambda t=text, n=name, k=kind, m=mode,
                            a=annotations:
                            parallelize_files({n: t}, k, m, a)[0]))
    for dialect in ("core", "extended"):
        options = GeneratorOptions(dialect=dialect)
        for i in range(GENERATED):
            fuzz = generate(derive_seed(SEED, i), options)
            for (kind, mode), cname in zip(CONFIGS, CONFIG_NAMES):
                out.append((f"generated {dialect}-{i}/{cname}",
                            lambda z=fuzz, k=kind, m=mode:
                            parallelize_program(
                                z.program(), Config(k, annotations=m),
                                AnnotationRegistry.from_text(z.annotations))))
    return out


#: one run's observable result: its parallel loops and its output, or
#: the exception it raised
Outcome = Tuple[frozenset, str]


def observe(run: Callable) -> Outcome:
    try:
        result = run()
    except Exception as exc:  # a knock-out may break the pipeline
        return frozenset(), f"error: {type(exc).__name__}"
    loops = frozenset(f"{v.unit}:{v.origin}" for v in result.report.verdicts
                      if v.parallelized)
    return loops, result.output


# ---------------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Row:
    component: Component
    reached: int = 0
    lost: int = 0
    gained: int = 0
    changed: int = 0
    errors: int = 0
    first: str = ""
    tier1: str = ""

    def zero(self) -> bool:
        return not (self.lost or self.gained or self.changed)


def baseline(runs) -> Tuple[Dict[str, Outcome], Dict[int, Set[str]]]:
    reach: Dict[int, Set[str]] = {k: set() for k in range(len(COMPONENTS))}
    patches = []
    outcomes: Dict[str, Outcome] = {}
    try:
        for k, c in enumerate(COMPONENTS):
            # started one by one: probes of one target wrap each other
            patches.append(_patch(c, _probe(c, reach[k])))
            patches[-1].start()
        for key, run in runs:
            _current[0] = key
            outcomes[key] = observe(run)
    finally:
        for p in reversed(patches):
            p.stop()
    return outcomes, reach


def knock_out(component: Component, runs, reach: Set[str],
              base: Dict[str, Outcome]) -> Row:
    row = Row(component, reached=len(reach))
    with _patch(component, component.knock):
        for key, run in runs:
            if key not in reach:
                continue
            loops, output = observe(run)
            base_loops, base_output = base[key]
            row.lost += len(base_loops - loops)
            row.gained += len(loops - base_loops)
            if output != base_output:
                row.changed += 1
                row.errors += output.startswith("error: ")
                row.first = row.first or key
    return row


def tier1_under(component: Component) -> str:
    import pytest
    with _patch(component, component.knock):
        code = pytest.main(["-q", "-x", "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests")])
    return "passes" if code == 0 else "fails"


def render(rows: List[Row], total: int) -> str:
    lines = [
        BEGIN,
        "",
        f"Knock-out census (`scripts/census.py`): {total} runs — PERFECT, "
        "the frontend corpus, the census pins and "
        f"{2 * GENERATED} generated programs, each under none, "
        "conventional and annotation hand/inferred/demand.  *Reached*: "
        "runs on which the knock-out could answer differently; *changed*: "
        "runs whose output (or exception) differs; *first*: the first "
        "such run, in census order.",
        "",
        "| family | component | reached | loops lost | loops gained "
        "| outputs changed | errors | first noticed by | tier-1 |",
        "|---|---|---:|---:|---:|---:|---:|---|---|",
    ]
    for r in rows:
        c = r.component
        lines.append(
            f"| {c.family} | {c.name} | {r.reached} | {r.lost} | "
            f"{r.gained} | {r.changed} | {r.errors} | "
            f"{r.first or '—'} | {r.tier1 or '—'} |")
    lines += ["", END]
    return "\n".join(lines)


def write_table(table: str) -> None:
    with open(EXPERIMENTS) as f:
        text = f.read()
    if BEGIN in text and END in text:
        head, rest = text.split(BEGIN, 1)
        tail = rest.split(END, 1)[1]
        text = head + table + tail
    else:
        text = text.rstrip("\n") + "\n\n" + table + "\n"
    with open(EXPERIMENTS, "w") as f:
        f.write(text)


def main() -> int:
    t0 = time.perf_counter()
    runs = inputs()
    base, reach = baseline(runs)
    rows = [knock_out(c, runs, reach[k], base)
            for k, c in enumerate(COMPONENTS)]
    for r in rows:
        if r.zero():
            r.tier1 = tier1_under(r.component)
    write_table(render(rows, len(runs)))
    zeros = [r.component.name for r in rows if r.zero()]
    print(f"census: {len(COMPONENTS)} components over {len(runs)} runs in "
          f"{time.perf_counter() - t0:.1f} s; zero rows: "
          f"{', '.join(zeros) or 'none'}", file=sys.stderr)
    return 1 if zeros else 0


if __name__ == "__main__":
    sys.exit(main())
