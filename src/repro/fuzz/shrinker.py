"""Delta-debugging shrinker: reduce a failing program to a minimal repro.

Given a program the oracle rejects, the shrinker repeatedly tries
structure-aware reductions — delete a statement, unwrap a loop or IF to
its body, drop a whole program unit, drop a declaration — keeping a
mutation only if the *same* failure still reproduces (same property
kind, same configuration, and for crashes the same exception type, so a
reduction can never launder one bug into a different one).

Reductions run in reverse preorder (children before their parents), so
within one round every candidate's statement list is still live when it
is tried; rounds repeat to a fixpoint.  Annotations are re-derived from
the mutated program before every oracle call, because deleting
statements changes callee summaries.

This is ddmin in spirit but syntax-directed: removing whole subtrees at
AST granularity converges in a handful of rounds on the ~60-line
programs the generator emits, typically landing well under 30 lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fortran import ast
from repro.program import Program
from repro.fuzz.generator import derive_annotations
from repro.fuzz.oracle import OracleResult, run_oracle

#: bound on reduction rounds (each round tries every reduction once)
MAX_ROUNDS = 8


@dataclass
class ShrinkResult:
    """The minimized repro plus how we got there."""

    sources: Dict[str, str]
    annotations: str
    kind: str            # the preserved failure kind
    config: str          # the configuration that exposes it
    steps: int           # successful reductions applied
    rounds: int          # fixpoint rounds (including the final no-op one)
    oracle_runs: int     # total predicate evaluations

    def line_count(self) -> int:
        return sum(t.count("\n") for t in self.sources.values())

    def source_text(self) -> str:
        return "".join(self.sources[k] for k in sorted(self.sources))


def _signature(result: OracleResult) -> Optional[Tuple[str, str, str]]:
    """The identity of a failure: (kind, config, crash-exception-type)."""
    m = result.primary
    if m is None:
        return None
    exc_type = ""
    if m.kind == "crash" or "raised" in m.detail:
        exc_type = m.detail.split(":", 1)[0]
    return (m.kind, m.config, exc_type)


def _matches(result: OracleResult,
             signature: Tuple[str, str, str]) -> bool:
    kind, config, exc_type = signature
    for m in result.mismatches:
        if m.kind != kind or m.config != config:
            continue
        if exc_type and not m.detail.startswith(exc_type):
            continue
        return True
    return False


class Shrinker:
    """Shrinks one failing program.  Single-use: construct, call
    :meth:`run`, read the result."""

    def __init__(self, sources: Dict[str, str], annotations: str = ""):
        self.sources = dict(sources)
        self.annotations = annotations
        self.oracle_runs = 0
        self.steps = 0
        #: re-derive annotations from each mutated candidate (right for
        #: generator output, whose annotations ARE the derived ones) or
        #: keep the provided text fixed (right when the annotations
        #: themselves are the suspect, e.g. hand-written ones); :meth:`run`
        #: decides by comparing them against the derived text
        self.rederive = False

    # -- predicate ----------------------------------------------------

    def _oracle(self, sources: Dict[str, str],
                annotations: str) -> OracleResult:
        self.oracle_runs += 1
        return run_oracle(sources, annotations)

    def _annotations_for(self, program: Program) -> str:
        if not self.rederive:
            return self.annotations
        try:
            fresh = Program.from_sources(program.unparse(), "shrink")
            return derive_annotations(fresh)
        except Exception:
            return ""

    def _still_fails(self, program: Program,
                     signature: Tuple[str, str, str]) -> bool:
        try:
            sources = program.unparse()
            # the mutated text must at least re-parse; a reduction that
            # produces unparseable text is rejected outright
            Program.from_sources(dict(sources), "shrink")
        except Exception:
            return False
        annotations = self._annotations_for(program)
        return _matches(self._oracle(sources, annotations), signature)

    # -- reduction passes ---------------------------------------------

    @staticmethod
    def _stmt_sites(program: Program) -> List[Tuple[List[ast.Stmt], int]]:
        """Every (statement-list, index) in reverse preorder: children
        before parents, later statements before earlier ones, so one
        round of in-place deletions never invalidates a pending site."""
        sites: List[Tuple[List[ast.Stmt], int]] = []

        def visit(body: List[ast.Stmt]) -> None:
            for idx, stmt in enumerate(body):
                sites.append((body, idx))
                for child in ast.stmt_children(stmt):
                    visit(child)

        for unit in program.units:
            visit(unit.body)
        sites.reverse()
        return sites

    def _try(self, program: Program, signature: Tuple[str, str, str],
             body: List[ast.Stmt], idx: int,
             replacement: List[ast.Stmt]) -> bool:
        original = body[idx]
        body[idx:idx + 1] = replacement
        program.invalidate()
        if self._still_fails(program, signature):
            self.steps += 1
            return True
        body[idx:idx + len(replacement)] = [original]
        program.invalidate()
        return False

    def _round_stmts(self, program: Program,
                     signature: Tuple[str, str, str]) -> bool:
        changed = False
        for body, idx in self._stmt_sites(program):
            if idx >= len(body):
                continue  # an earlier deletion shortened this list
            stmt = body[idx]
            if self._try(program, signature, body, idx, []):
                changed = True
                continue
            # unwrap compound statements to their bodies
            inner: List[ast.Stmt] = []
            if isinstance(stmt, ast.DoLoop):
                inner = stmt.body
            elif isinstance(stmt, ast.IfBlock):
                inner = [s for _, arm in stmt.arms for s in arm]
            if inner and self._try(program, signature, body, idx,
                                   list(inner)):
                changed = True
        return changed

    def _round_units(self, program: Program,
                     signature: Tuple[str, str, str]) -> bool:
        changed = False
        for source_file in program.files:
            for idx in range(len(source_file.units) - 1, -1, -1):
                unit = source_file.units[idx]
                if unit.kind == "PROGRAM":
                    continue
                del source_file.units[idx]
                program.invalidate()
                if self._still_fails(program, signature):
                    self.steps += 1
                    changed = True
                else:
                    source_file.units.insert(idx, unit)
                    program.invalidate()
        return changed

    def _round_decls(self, program: Program,
                     signature: Tuple[str, str, str]) -> bool:
        changed = False
        for unit in program.units:
            for idx in range(len(unit.decls) - 1, -1, -1):
                decl = unit.decls[idx]
                del unit.decls[idx]
                program.invalidate()
                if self._still_fails(program, signature):
                    self.steps += 1
                    changed = True
                else:
                    unit.decls.insert(idx, decl)
                    program.invalidate()
        return changed

    # -- driver -------------------------------------------------------

    def run(self) -> Optional[ShrinkResult]:
        """Shrink to fixpoint.  Returns None when the input program does
        not fail the oracle at all (nothing to shrink)."""
        initial = self._oracle(self.sources, self.annotations)
        signature = _signature(initial)
        if signature is None:
            return None
        program = Program.from_sources(dict(self.sources), "shrink")
        try:
            derived = derive_annotations(
                Program.from_sources(dict(self.sources), "shrink"))
        except Exception:
            derived = ""
        self.rederive = derived.strip() == self.annotations.strip()

        rounds = 0
        for rounds in range(1, MAX_ROUNDS + 1):
            changed = self._round_stmts(program, signature)
            changed = self._round_units(program, signature) or changed
            changed = self._round_decls(program, signature) or changed
            if not changed:
                break

        sources = program.unparse()
        kind, config, _ = signature
        return ShrinkResult(sources=dict(sources),
                            annotations=self._annotations_for(program),
                            kind=kind, config=config, steps=self.steps,
                            rounds=rounds, oracle_runs=self.oracle_runs)


def shrink(sources: Dict[str, str],
           annotations: str = "") -> Optional[ShrinkResult]:
    """Convenience wrapper: shrink ``sources`` to a minimal repro."""
    return Shrinker(sources, annotations).run()
