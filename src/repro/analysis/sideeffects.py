"""Per-procedure side-effect (MOD/REF) summaries.

The no-inlining baseline needs to know, for a CALL inside a candidate
loop, whether the callee has *any* observable side effect.  Summaries are
computed bottom-up over the call graph, each from the access walk the
graph keeps for its unit:

* ``mod``/``ref``: names of formals and COMMON variables (by the callee's
  view) written / read anywhere in the callee or its callees;
* ``has_io``/``has_stop``: the callee (transitively) performs I/O or may
  abort — both disable reordering of enclosing loops;
* ``opaque``: the callee (transitively) invokes a procedure whose body is
  unavailable, so nothing can be assumed.

``pure`` means: no writes at all, no I/O, no STOP, not opaque — calls to
pure procedures do not block parallelization of an enclosing loop.  This
mirrors the (limited) interprocedural knowledge Polaris applies when
inlining is disabled; anything stronger is exactly what the paper's
annotation mechanism supplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.fortran import ast
from repro.program import Program


@dataclass
class Summary:
    name: str
    mod: Set[str] = field(default_factory=set)
    ref: Set[str] = field(default_factory=set)
    has_io: bool = False
    has_stop: bool = False
    opaque: bool = False

    @property
    def pure(self) -> bool:
        return (not self.mod and not self.has_io and not self.has_stop
                and not self.opaque)


OPAQUE = Summary("<unknown>", opaque=True, has_io=True, has_stop=True)


def compute_summaries(program: Program,
                      graph: Optional[CallGraph] = None) -> Dict[str, Summary]:
    """Bottom-up MOD/REF summaries for every procedure in ``program``.

    Procedures on call-graph cycles (recursion) are treated as opaque —
    conventional inlining cannot handle them either, which is one of the
    paper's motivating limitations.
    """
    graph = graph or build_callgraph(program)
    summaries: Dict[str, Summary] = {}
    procedures = program.procedures

    for name in graph.topological_bottom_up():
        unit = procedures.get(name)
        if unit is None:
            continue  # PROGRAM units get summaries too, but lazily below
        summaries[name] = _summarize(program, unit, graph, summaries)
    for unit in program.units:
        if unit.name not in summaries and unit.kind != "PROGRAM":
            summaries[unit.name] = _summarize(program, unit, graph, summaries)
    return summaries


def _summarize(program: Program, unit: ast.ProgramUnit, graph: CallGraph,
               summaries: Dict[str, Summary]) -> Summary:
    out = Summary(unit.name)
    if graph.is_recursive(unit.name):
        out.opaque = True
    table = program.symtab(unit)
    acc = graph.accesses[unit.name]
    out.has_io |= acc.has_io
    out.has_stop |= acc.has_stop
    if acc.has_opaque or acc.unanalyzable:
        # ENTRY points, unlowered statements or substring accesses: the
        # summary cannot bound what the callee touches
        out.opaque = True
    if any(isinstance(d, ast.EquivalenceDecl) for d in unit.decls):
        # storage association inside the callee invalidates the
        # formal/COMMON name mapping the summary is built on
        out.opaque = True
    if acc.has_alt_return:
        out.opaque = True  # alternate return: non-local control flow

    formals = set(table.formals)

    def visible(name: str) -> bool:
        info = table.declared(name)
        if name in formals:
            return True
        return info is not None and info.common_block is not None

    for name in acc.scalar_writes:
        if visible(name):
            out.mod.add(name)
    for name in acc.scalar_reads:
        if visible(name):
            out.ref.add(name)
    for name, _, is_write in acc.array_accesses:
        if visible(name):
            (out.mod if is_write else out.ref).add(name)

    # merge callee effects, mapping callee formals through call arguments
    procedures = program.procedures
    for s in acc.calls:
        # an external library routine, or a cycle member not yet
        # summarized: conservative
        callee = summaries.get(s.name.upper(), OPAQUE)
        out.has_io |= callee.has_io
        out.has_stop |= callee.has_stop
        out.opaque |= callee.opaque
        callee_unit = procedures.get(s.name.upper())
        callee_formals = ([p.upper() for p in callee_unit.params]
                          if callee_unit else [])
        for k, arg in enumerate(s.args):
            root = arg.name.upper() if isinstance(
                arg, (ast.Var, ast.ArrayRef)) else None
            if root is None or not visible(root):
                continue
            formal = callee_formals[k] if k < len(callee_formals) else None
            if formal is None:
                out.mod.add(root)  # unknown binding: assume modified
                out.ref.add(root)
            else:
                if formal in callee.mod:
                    out.mod.add(root)
                if formal in callee.ref:
                    out.ref.add(root)
        # COMMON effects propagate by name (common names are globally
        # meaningful)
        out.mod |= callee.mod - set(callee_formals)
        out.ref |= callee.ref - set(callee_formals)
    return out
