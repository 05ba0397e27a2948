"""Automatic annotation derivation — the paper's first future-work item
(Section VI: "develop techniques to automatically derive necessary
annotations").

For a *leaf* subroutine whose body the analyses can fully summarize, the
generator derives the Figure-12 annotation a developer would have
written:

* every array written gets a region-assignment summary: per-dimension
  bounds are computed by projecting each write's subscripts over its
  enclosing loops (re-using the kill-analysis region machinery); the
  ``unknown`` operand list is the callee's read set;
* scalars written get ``name = unknown(reads...)``;
* callee-local temporaries (implicit locals never visible outside) are
  omitted entirely, as the paper prescribes;
* debugging/error-checking conditionals (an IF arm consisting only of
  I/O and STOP) are *omitted* under the paper's relaxed
  exception-handling policy — reported in the result so the developer
  can veto;
* anything the analysis cannot summarize (calls, GOTO, non-projectable
  write regions, writes through formals without declarable shapes) makes
  the subroutine ineligible, with the reason recorded.

Derived annotations are ordinary :class:`~repro.annotations.ast.ASubroutine`
values: they feed the same inliner/reverse pipeline and can be serialized
with :func:`render_annotation` for human review.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.defuse import AccessSet, collect_accesses
from repro.analysis.regions import Region, projected_region
from repro.annotations import ast as aast
from repro.fortran import ast as fast
from repro.fortran.symbols import SymbolTable, VarInfo, build_symbol_table
from repro.fortran.unparser import expr_to_str
from repro.program import Program


@dataclass
class GenerationResult:
    annotation: Optional[aast.ASubroutine]
    reason: str = ""  # why generation failed, when annotation is None
    #: error-handling conditionals that were omitted (paper relaxation)
    omitted_error_checks: int = 0

    @property
    def ok(self) -> bool:
        return self.annotation is not None


def generate_annotation(program: Program,
                        name: str) -> GenerationResult:
    """Derive an annotation for subroutine ``name`` from its body."""
    unit = program.procedures.get(name.upper())
    if unit is None:
        return GenerationResult(None, "no source available")
    if unit.kind != "SUBROUTINE":
        return GenerationResult(None, "not a subroutine")
    table = program.symtab(unit)
    acc = collect_accesses(unit.body, table)
    if acc.has_call:
        return GenerationResult(None, "calls other procedures")
    if acc.has_goto:
        return GenerationResult(None, "unstructured control flow")
    if acc.has_opaque:
        return GenerationResult(
            None, "body contains an ENTRY point or unlowered statement")
    if acc.unanalyzable:
        return GenerationResult(
            None, f"unanalyzable access to "
                  f"{sorted(acc.unanalyzable)[0]} (substring)")
    if any(isinstance(d, fast.EquivalenceDecl) for d in unit.decls):
        return GenerationResult(
            None, "EQUIVALENCE storage association in the body")
    if acc.has_alt_return:
        return GenerationResult(None, "alternate-return exit")

    # summarize a normalized clone: induction-variable substitution and
    # forward substitution turn I = I + 1 subscripts into loop-index
    # form, exactly as the dependence analysis would see them
    from repro.analysis.normalize import normalize_unit
    work = fast.clone(unit)
    normalize_unit(work, build_symbol_table(work))

    body, omitted = _strip_error_checks(work.body, table)
    acc = collect_accesses(body, table)
    if acc.has_io or acc.has_stop:
        return GenerationResult(
            None, "performs I/O outside error-checking conditionals",
            omitted)

    formals = set(table.formals)

    def visible(n: str) -> bool:
        info = table.declared(n)
        if n in formals:
            return True
        return info is not None and info.common_block is not None

    # the ``unknown`` operand list: every visible value the body reads.
    # Scalars that are also *written* stay in the list: for a
    # read-modify-write like ``S = S + X`` the incoming value is an input
    # to the summary, and omitting it would erase the loop-carried flow
    # dependence at call sites (found by repro.fuzz, seed 203606025241)
    reads: List[fast.Expr] = []
    seen: Set[str] = set()
    for n in sorted(acc.scalar_reads):
        if visible(n) and n not in seen:
            reads.append(fast.Var(n))
            seen.add(n)
    for n, subs, w in acc.array_accesses:
        if not w and visible(n) and n not in seen:
            reads.append(fast.ArrayRef(n, (fast.IntLit(1),)
                                       * len(table.info(n).dims or (None,))))
            seen.add(n)

    stmts: List[aast.AnnStmt] = []
    dims_decls: List[fast.Entity] = []

    # array writes -> region summaries
    arrays_written = sorted({n for n, _, w in acc.array_accesses if w})
    for n in arrays_written:
        if not visible(n):
            continue  # local temporary: omitted by design
        region = _written_region(acc, n, table.info(n))
        if region is None:
            return GenerationResult(
                None, f"cannot summarize the region written to {n}",
                omitted)
        info = table.info(n)
        if n in formals:
            if info.dims is None:
                return GenerationResult(
                    None, f"array formal {n} has no declared shape",
                    omitted)
            dims_decls.append(fast.Entity(n, _annotation_dims(region,
                                                              info)))
        subs = _region_subs(region)
        if subs is None:
            return GenerationResult(
                None, f"write region of {n} is not expressible", omitted)
        stmts.append(aast.AAssign(
            (fast.ArrayRef(n, subs),),
            aast.Unknown(tuple(reads))))

    # visible scalar writes
    for n in sorted(acc.scalar_writes):
        if not visible(n):
            continue
        stmts.append(aast.AAssign(
            (fast.Var(n),),
            aast.Unknown(tuple(reads))))

    if not stmts:
        return GenerationResult(None, "no visible side effects to "
                                      "summarize", omitted)
    # array formals that are only *read* still need a shape declaration,
    # or call-site translation cannot bind them (hand-written annotations
    # always declare the formals they subscript)
    declared = {e.name for e in dims_decls}
    for n in sorted({a for a, _, w in acc.array_accesses if not w}):
        if n not in formals or n in declared:
            continue
        info = table.info(n)
        if info.dims is None or any(d.upper is None for d in info.dims):
            return GenerationResult(
                None, f"array formal {n} has no declared shape", omitted)
        dims_decls.append(fast.Entity(n, fast.clone(info.dims)))
        declared.add(n)
    if dims_decls:
        stmts.insert(0, aast.ADecl("", dims_decls))
    ann = aast.ASubroutine(unit.name, list(unit.params), stmts)
    return GenerationResult(ann, "", omitted)


def generate_all(program: Program) -> Dict[str, GenerationResult]:
    """Attempt generation for every subroutine in the program."""
    return {name: generate_annotation(program, name)
            for name, u in sorted(program.procedures.items())
            if u.kind == "SUBROUTINE"}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _strip_error_checks(body: List[fast.Stmt], table: SymbolTable
                        ) -> Tuple[List[fast.Stmt], int]:
    """Remove IF arms consisting solely of I/O + STOP (the paper's
    relaxed exception-handling policy), counting the omissions."""
    omitted = [0]

    def is_error_arm(arm: List[fast.Stmt]) -> bool:
        if not arm:
            return False
        for s in arm:
            if not isinstance(s, (fast.IoStmt, fast.Stop, fast.Continue)):
                return False
        return any(isinstance(s, fast.Stop) for s in arm)

    def rewrite(s: fast.Stmt) -> Optional[List[fast.Stmt]]:
        if isinstance(s, fast.IfBlock):
            arms = [(c, a) for c, a in s.arms if not is_error_arm(a)]
            if len(arms) != len(s.arms):
                omitted[0] += len(s.arms) - len(arms)
                if not arms:
                    return []
                return [fast.IfBlock(arms, s.label)]
        return None

    return fast.map_stmts(fast.clone(body), rewrite), omitted[0]


def _written_region(acc: AccessSet, name: str,
                    info: VarInfo) -> Optional[Region]:
    """The union-as-single-region of all writes to ``name`` in the walk
    ``acc``, each projected over its enclosing loops; None when writes
    differ structurally."""
    merged: Optional[Region] = None
    for (array, subs, is_write), loops in zip(acc.array_accesses,
                                              acc.array_loops):
        if not is_write or array != name:
            continue
        r = projected_region(subs, info, loops)
        if merged is not None and merged.covers(r):
            continue
        if merged is not None and not r.covers(merged):
            return None  # structurally different writes: give up
        merged = r
    return merged


def _region_subs(region: Region
                 ) -> Optional[Tuple[fast.Expr, ...]]:
    subs: List[fast.Expr] = []
    for d in region.dims:
        if d.lo is None or d.hi is None:
            return None
        lo = d.lo.to_expr()
        hi = d.hi.to_expr()
        if lo == hi:
            subs.append(lo)
        else:
            subs.append(fast.RangeExpr(lo, hi))
    return tuple(subs)


def _annotation_dims(region: Region, info) -> Tuple[fast.Dim, ...]:
    """Shape declaration for an array formal: the declared dims where
    constant, otherwise the written extent."""
    out: List[fast.Dim] = []
    for k, d in enumerate(info.dims):
        if d.upper is not None:
            out.append(fast.Dim(d.lower, d.upper))
        elif region.dims[k].hi is not None:
            out.append(fast.Dim(fast.IntLit(1),
                                region.dims[k].hi.to_expr()))
        else:
            out.append(fast.Dim(fast.IntLit(1), None))
    return tuple(out)


# ---------------------------------------------------------------------------
# serialization (for human review / EXPERIMENTS artifacts)
# ---------------------------------------------------------------------------

def render_annotation(ann: aast.ASubroutine) -> str:
    lines = [f"subroutine {ann.name}({', '.join(ann.params)}) {{"]
    for s in ann.body:
        lines.extend(_render_stmt(s, 1))
    lines.append("}")
    return "\n".join(lines)


def _render_expr(e: fast.Expr) -> str:
    if isinstance(e, aast.Unknown):
        return "unknown(" + ", ".join(_render_expr(a) for a in e.args) + ")"
    if isinstance(e, aast.Unique):
        return "unique(" + ", ".join(_render_expr(a) for a in e.args) + ")"
    if isinstance(e, fast.ArrayRef):
        return e.name + "[" + ", ".join(_render_expr(s)
                                        for s in e.subs) + "]"
    if isinstance(e, fast.RangeExpr):
        lo = _render_expr(e.lo) if e.lo is not None else ""
        hi = _render_expr(e.hi) if e.hi is not None else ""
        if not lo and not hi:
            return "*"
        return f"{lo}:{hi}"
    if isinstance(e, fast.BinOp):
        return f"{_render_expr(e.left)} {e.op} {_render_expr(e.right)}"
    if isinstance(e, fast.UnOp):
        return f"{e.op}{_render_expr(e.operand)}"
    return expr_to_str(e)


def _render_stmt(s: aast.AnnStmt, depth: int) -> List[str]:
    pad = "  " * depth
    if isinstance(s, aast.AAssign):
        targets = ", ".join(_render_expr(t) for t in s.targets)
        if len(s.targets) > 1:
            targets = f"({targets})"
        return [f"{pad}{targets} = {_render_expr(s.value)};"]
    if isinstance(s, aast.ADecl):
        kw = s.typename.lower() if s.typename else "dimension"
        ents = []
        for e in s.entities:
            if e.dims:
                dims = ", ".join(
                    _render_expr(d.upper) if d.lower == fast.IntLit(1)
                    else f"{_render_expr(d.lower)}:{_render_expr(d.upper)}"
                    for d in e.dims)
                ents.append(f"{e.name}[{dims}]")
            else:
                ents.append(e.name)
        return [f"{pad}{kw} {', '.join(ents)};"]
    if isinstance(s, aast.ADo):
        head = f"{pad}do ({s.var} = {_render_expr(s.start)}:" \
               f"{_render_expr(s.stop)}"
        if s.step is not None:
            head += f":{_render_expr(s.step)}"
        head += ") {"
        out = [head]
        for inner in s.body:
            out.extend(_render_stmt(inner, depth + 1))
        out.append(f"{pad}}}")
        return out
    if isinstance(s, aast.AIf):
        out = [f"{pad}if ({_render_expr(s.cond)}) {{"]
        for inner in s.then:
            out.extend(_render_stmt(inner, depth + 1))
        if s.els:
            out.append(f"{pad}}} else {{")
            for inner in s.els:
                out.extend(_render_stmt(inner, depth + 1))
        out.append(f"{pad}}}")
        return out
    raise TypeError(f"cannot render {s!r}")
