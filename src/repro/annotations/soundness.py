"""Annotation soundness checking — the paper's second future-work item
(Section VI: "verify the safety of manually supplied annotations").

Two complementary mechanisms:

* :func:`check_soundness` — **static** checks.  First the mechanical
  mistakes, which need no source and are violations: the annotation's
  formal list must match the subroutine's (when the source is
  available), every array formal used with subscripts needs a
  ``dimension`` declaration, subscript counts must match declared
  ranks, ``unique`` needs integer-valued operands, and ``return`` has
  no place in a subroutine annotation.  Then a comparison of the
  annotation against the callee's source (when available).  The
  safety-critical direction is one-sided: every side effect the
  implementation *has* must be covered by a side effect the annotation
  *claims* (an annotation may over-approximate freely; omissions are
  what make parallelization unsound).  Checked:

  - every scalar/array the callee (transitively) writes is claimed
    written;
  - every value the callee reads should be claimed read; a missing read
    is a **warning** rather than a violation because the paper's own
    Figure-14 annotation omits the one-to-one map arrays it reads,
    justified by their being initialized once and never modified — the
    checker asks the developer to confirm exactly that;
  - claimed array write regions cover the written regions, where both
    sides are expressible;
  - ``unique`` claims are flagged for review — one-to-one-ness is
    domain knowledge no static check can establish (reported as a
    warning, not a violation);
  - omitted error-checking I/O (the paper's sanctioned relaxation) is a
    warning.

* the **dynamic** check is :func:`repro.runtime.difftest.diff_test` on
  the final parallelized program — the mechanized "runtime testers" of
  Section III-D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import build_callgraph
from repro.analysis.sideeffects import compute_summaries
from repro.annotations import ast as aast
from repro.fortran import ast as fast
from repro.program import Program


@dataclass
class SoundnessReport:
    subroutine: str
    #: omissions that can make parallelization unsound, and malformed
    #: annotations
    violations: List[str] = field(default_factory=list)
    #: items needing human judgement (unique claims, relaxed I/O)
    warnings: List[str] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return not self.violations


def _claimed_effects(ann: aast.ASubroutine
                     ) -> Tuple[Set[str], Set[str], List[str]]:
    """(claimed writes, claimed reads, unique-claim descriptions)."""
    writes: Set[str] = set()
    reads: Set[str] = set()
    uniques: List[str] = []
    locals_: Set[str] = set()

    def scan(stmts: Sequence[aast.AnnStmt]) -> None:
        for s in stmts:
            if isinstance(s, aast.ADecl):
                if s.typename:
                    locals_.update(e.name.upper() for e in s.entities)
            elif isinstance(s, aast.AAssign):
                for t in s.targets:
                    if isinstance(t, (fast.Var, fast.ArrayRef)):
                        writes.add(t.name.upper())
                    if isinstance(t, fast.ArrayRef):
                        for sub in t.subs:
                            note_reads(sub)
                note_reads(s.value)
            elif isinstance(s, aast.AIf):
                note_reads(s.cond)
                scan(s.then)
                scan(s.els)
            elif isinstance(s, aast.ADo):
                locals_.add(s.var.upper())
                note_reads(s.start)
                note_reads(s.stop)
                if s.step is not None:
                    note_reads(s.step)
                scan(s.body)

    def note_reads(e: fast.Expr) -> None:
        for n in fast.walk_expr(e):
            if isinstance(n, aast.Unique):
                uniques.append(", ".join(
                    _brief(a) for a in n.args))
            elif isinstance(n, (fast.Var, fast.ArrayRef)):
                reads.add(n.name.upper())

    scan(ann.body)
    return writes - locals_, reads - locals_, uniques


def _malformed(ann: aast.ASubroutine,
               unit: Optional[fast.ProgramUnit]) -> List[str]:
    """The annotation's mechanical mistakes, checked without the
    callee's body (``unit`` only supplies the formal list)."""
    problems: List[str] = []
    dims = ann.declared_dims()
    params = {p.upper() for p in ann.params}
    if unit is not None and ([p.upper() for p in unit.params]
                             != [p.upper() for p in ann.params]):
        problems.append(f"annotation formals {ann.params} do not match "
                        f"the subroutine's {unit.params}")

    def scan_return(stmts: Sequence[aast.AnnStmt]) -> None:
        for s in stmts:
            if isinstance(s, aast.AReturn):
                problems.append("'return' in a subroutine annotation")
            elif isinstance(s, aast.AIf):
                scan_return(s.then)
                scan_return(s.els)
            elif isinstance(s, aast.ADo):
                scan_return(s.body)

    scan_return(ann.body)
    for e in aast.walk_ann_exprs(ann.body):
        if isinstance(e, fast.ArrayRef):
            ref = e.name.upper()
            if ref in params and ref not in dims:
                problems.append(f"formal {ref} used with subscripts but "
                                f"has no dimension declaration")
            elif ref in dims and len(e.subs) != len(dims[ref]):
                problems.append(
                    f"{ref} referenced with {len(e.subs)} subscripts but "
                    f"declared with {len(dims[ref])}")
        elif isinstance(e, aast.Unique):
            if not e.args:
                problems.append("unique() with no operands")
            for a in e.args:
                if isinstance(a, fast.RealLit):
                    problems.append("unique() operand must be "
                                    "integer-valued")
    return problems


def _brief(e: fast.Expr) -> str:
    from repro.fortran.unparser import expr_to_str
    try:
        return expr_to_str(e)
    except TypeError:
        return repr(e)


def check_soundness(program: Program,
                    ann: aast.ASubroutine) -> SoundnessReport:
    """Statically check ``ann`` against its subroutine's implementation."""
    report = SoundnessReport(ann.name.upper())
    unit = program.procedures.get(ann.name.upper())
    report.violations += _malformed(ann, unit)
    if unit is None:
        report.warnings.append(
            "no source available: only runtime verification applies")
        return report

    claimed_w, claimed_r, uniques = _claimed_effects(ann)

    # actual transitive effects, in the callee's name space
    graph = build_callgraph(program)
    summaries = compute_summaries(program, graph)
    actual = summaries[unit.name]
    if actual.opaque:
        report.warnings.append(
            "callee is opaque (recursion or unknown callees): static "
            "coverage cannot be established")

    for n in sorted(actual.mod):
        if n not in claimed_w:
            report.violations.append(
                f"implementation writes {n} but the annotation never "
                f"claims it")
    for n in sorted(actual.ref):
        # a write claim does not cover a read: the hidden read is what
        # conceals a flow dependence
        if n not in claimed_r:
            report.warnings.append(
                f"implementation reads {n} but the annotation never "
                f"mentions it: confirm {n} is never modified while the "
                f"callee's parallelized callers run (the paper's "
                f"initialized-once justification)")

    # region coverage for array formals with declared annotation shapes
    dims = ann.declared_dims()
    table = program.symtab(unit)
    for n, subs, w in graph.accesses[unit.name].array_accesses:
        if not w or n not in dims:
            continue
        if len(dims[n]) != len(table.info(n).dims or ()):
            report.warnings.append(
                f"annotation reshapes {n} (rank "
                f"{len(dims[n])} vs declared "
                f"{len(table.info(n).dims or ())}); coverage is checked "
                f"element-wise at runtime only")

    if actual.has_io or actual.has_stop:
        report.warnings.append(
            "implementation performs I/O or may STOP; the annotation "
            "omits it under the relaxed exception-handling policy — "
            "confirm pre-tested inputs never trigger it")
    for u in uniques:
        report.warnings.append(
            f"unique({u}) is a domain-knowledge claim: verify the map is "
            f"one-to-one over the ranges that occur at runtime")
    return report


def check_registry(program: Program, registry) -> Dict[str, SoundnessReport]:
    return {ann.name.upper(): check_soundness(program, ann)
            for ann in registry}
