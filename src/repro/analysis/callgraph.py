"""Interprocedural call graph construction.

The edges of a unit are the callees of its access walk
(:func:`repro.analysis.defuse.collect_accesses`), and the graph keeps
that walk: the side-effect summaries read the same one instead of
walking every body again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.analysis.defuse import AccessSet, collect_accesses
from repro.program import Program


@dataclass
class CallGraph:
    """Caller -> callee edges over procedure names (upper case).

    ``unknown`` collects names invoked but not defined in the program
    (external library routines) — the calls conventional inlining cannot
    touch but annotations can summarize.
    """

    edges: Dict[str, Set[str]] = field(default_factory=dict)
    unknown: Set[str] = field(default_factory=set)
    #: each unit's access walk, the edges' source
    accesses: Dict[str, AccessSet] = field(default_factory=dict)

    def callees(self, name: str) -> Set[str]:
        return self.edges.get(name.upper(), set())

    def is_recursive(self, name: str) -> bool:
        """Is ``name`` on a call-graph cycle (including self-recursion)?"""
        name = name.upper()
        seen: Set[str] = set()
        stack = list(self.callees(name))
        while stack:
            n = stack.pop()
            if n == name:
                return True
            if n in seen:
                continue
            seen.add(n)
            stack.extend(self.callees(n))
        return False

    def topological_bottom_up(self) -> List[str]:
        """Procedures ordered callees-first; members of cycles appear in an
        arbitrary (but deterministic) position within their cycle."""
        order: List[str] = []
        state: Dict[str, int] = {}  # 0 visiting, 1 done

        def visit(n: str) -> None:
            if state.get(n) is not None:
                return
            state[n] = 0
            for callee in sorted(self.callees(n)):
                if state.get(callee) != 0:
                    visit(callee)
            state[n] = 1
            order.append(n)

        for n in sorted(self.edges):
            visit(n)
        return order


def build_callgraph(program: Program) -> CallGraph:
    graph = CallGraph()
    defined = {u.name for u in program.units}
    for unit in program.units:
        acc = collect_accesses(unit.body, program.symtab(unit))
        callees = set(acc.callees)
        graph.edges[unit.name] = callees
        graph.accesses[unit.name] = acc
        graph.unknown |= callees - defined
    return graph
