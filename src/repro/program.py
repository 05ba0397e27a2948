"""Whole-application container.

A PERFECT-style application is several Fortran files; :class:`Program`
gathers their program units, runs call resolution across file boundaries,
and caches symbol tables.  All transformation pipelines (inlining,
parallelization, reverse inlining) operate on a Program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

from repro.errors import SemanticError
from repro.fortran import ast
from repro.fortran.parser import parse_source
from repro.fortran.symbols import (SymbolTable, build_symbol_table,
                                   function_names, resolve_calls)


@dataclass
class Program:
    """A whole multi-file Fortran application."""

    files: List[ast.SourceFile] = field(default_factory=list)
    name: str = "program"

    #: its stamped base's :class:`repro.polaris.driver.AnalysisMemo`
    memo: Optional[object] = field(default=None, repr=False, compare=False)

    #: ``id(unit) -> (unit, table)``: the held unit's id is never reused
    _tables: Dict[int, Tuple[ast.ProgramUnit, SymbolTable]] = field(
        default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    @staticmethod
    def from_sources(sources: Dict[str, str], name: str = "program") -> "Program":
        """Parse a {filename: text} mapping and resolve cross-file calls."""
        files = [parse_source(text, fname) for fname, text in sources.items()]
        prog = Program(files, name)
        prog.resolve()
        return prog

    @staticmethod
    def from_source(text: str, name: str = "program") -> "Program":
        return Program.from_sources({f"{name}.f": text}, name)

    # ------------------------------------------------------------------
    @property
    def units(self) -> List[ast.ProgramUnit]:
        return [u for f in self.files for u in f.units]

    @property
    def main(self) -> ast.ProgramUnit:
        for u in self.units:
            if u.kind == "PROGRAM":
                return u
        raise SemanticError(f"{self.name}: no PROGRAM unit")

    def unit(self, name: str) -> ast.ProgramUnit:
        name = name.upper()
        for u in self.units:
            if u.name == name:
                return u
        raise KeyError(name)

    @property
    def procedures(self) -> Dict[str, ast.ProgramUnit]:
        return {u.name: u for u in self.units
                if u.kind in ("SUBROUTINE", "FUNCTION")}

    # ------------------------------------------------------------------
    def resolve(self, units: Optional[Collection[str]] = None) -> None:
        """Run function-reference resolution with the global function set
        (cross-file) and invalidate the cached symbol tables of the units
        it rewrote.  A pass that knows which units it rewrote names them
        in ``units``; resolution is idempotent on the rest (no pass adds
        or removes a FUNCTION), so their tables stay."""
        funcs = set()
        for f in self.files:
            funcs |= function_names(f)
        for f in self.files:
            resolve_calls(f, funcs, units)
        if units is None:
            self._tables.clear()
            return
        for key in [key for key, (unit, _) in self._tables.items()
                    if unit.name in units]:
            del self._tables[key]

    def symtab(self, unit: ast.ProgramUnit) -> SymbolTable:
        entry = self._tables.get(id(unit))
        if entry is None:
            entry = self._tables[id(unit)] = (unit, build_symbol_table(unit))
        return entry[1]

    def invalidate(self, unit: Optional[ast.ProgramUnit] = None) -> None:
        """Drop cached symbol tables after a transformation mutated
        declarations."""
        if unit is None:
            self._tables.clear()
        else:
            self._tables.pop(id(unit), None)

    # ------------------------------------------------------------------
    def unparse(self) -> Dict[str, str]:
        from repro.fortran.unparser import unparse
        return {f.filename: unparse(f) for f in self.files}

    def total_lines(self) -> int:
        """Code size metric used by Table II: source lines after unparse,
        comments excluded (the unparser only emits structural comments,
        which Table II's metric in the paper also includes as 'mostly
        OpenMP directives')."""
        return sum(text.count("\n") for text in self.unparse().values())

    def clone(self) -> "Program":
        return Program([ast.clone(f) for f in self.files], self.name,
                       self.memo)
