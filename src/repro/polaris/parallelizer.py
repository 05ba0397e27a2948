"""Loop parallelization legality analysis.

For a candidate loop ``L`` the analyzer checks, in order:

1. **control flow** — no GOTO, STOP or RETURN anywhere in the body;
2. **I/O** — no READ/WRITE/PRINT (the paper's "debugging and error
   checking" obstacle: conservative compilers must keep such loops
   serial);
3. **procedure calls** — every CALL (and user function reference) must be
   provably side-effect-free per the interprocedural summaries.  This is
   where opaque calls serialize loops in the no-inlining configuration —
   the premise of the whole paper;
4. **scalars** — every scalar written in the body must be write-first
   (privatizable), a recognized reduction, or an inner loop index;
5. **arrays** — for every array written in the body, all access pairs are
   subjected to the dependence tester under the ``(outer '=', L '<',
   inner '*')`` direction constraint in both orders; arrays with surviving
   carried dependences must pass the kill analysis (privatization).

A failing check does not stop the analysis: every blocker is recorded,
in this order, so the report can explain Table II and ``repro
diagnose`` can list everything that keeps a loop serial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.affine import AffineForm, extract
from repro.analysis.defuse import AccessSet
from repro.analysis.dependence import DependenceTester, LoopCtx
from repro.analysis.loops import LoopInfo, loop_ctx
from repro.analysis.privatization import ScalarClass, scan_body
from repro.analysis.sideeffects import Summary
from repro.fortran import ast
from repro.fortran.symbols import SymbolTable
from repro.fortran.unparser import expr_to_str
from repro.naming import is_capture_array
from repro.trace.decisions import LoopDecision

#: one legality failure: ``(reason, detail, witness)``
Blocker = Tuple[str, str, str]


@dataclass
class _ArrayRefSite:
    subs: Tuple[ast.Expr, ...]
    is_write: bool
    #: loops inside L enclosing this reference
    inner_loops: Tuple[ast.DoLoop, ...]


@dataclass
class LegalityAnalyzer:
    table: SymbolTable
    summaries: Dict[str, Summary]
    tester: DependenceTester = field(default_factory=DependenceTester)
    #: ``id(loop) -> (loop, its LoopCtx)`` for every loop seen so far:
    #: a loop is an enclosing or inner loop of many others, and its
    #: bounds do not change while its unit is analyzed (holding the loop
    #: keeps its id from being reused)
    _ctxs: Dict[int, Tuple[ast.DoLoop, LoopCtx]] = field(
        default_factory=dict, init=False, repr=False)

    # ------------------------------------------------------------------
    def analyze(self, info: LoopInfo, acc: AccessSet) -> LoopDecision:
        """The loop's decision record as far as legality goes: every
        blocker, the first one as ``reason``/``detail``, and the clauses
        of a legal loop (``acc``: the accesses of the loop body)."""
        private: List[str] = []
        red_clauses: List[Tuple[str, str]] = []
        blockers = tuple(self.blockers(info, acc, private, red_clauses))
        decision = LoopDecision(self.table.unit_name, info.loop.var,
                                info.origin, not blockers,
                                blockers=blockers)
        if blockers:
            decision.reason, decision.detail = blockers[0][:2]
        else:
            decision.private = tuple(private)
            decision.reductions = tuple(red_clauses)
        return decision

    def blockers(self, info: LoopInfo, acc: AccessSet, private: List[str],
                 red_clauses: List[Tuple[str, str]]) -> Iterator[Blocker]:
        """Every reason ``info.loop`` cannot run in parallel, in check
        order; appends the PRIVATE and REDUCTION clauses the loop needs
        to ``private`` and ``red_clauses``."""
        loop = info.loop
        if acc.has_goto:
            yield ("control-flow", "GOTO", "")
        if acc.has_stop:
            yield ("control-flow", "STOP", "")
        if acc.has_return:
            yield ("control-flow", "RETURN", "")
        if acc.has_io:
            yield ("io", "", "")
        if acc.has_opaque:
            yield ("unanalyzable",
                   "unlowered statement or ENTRY point in body", "")
        for name in sorted(acc.unanalyzable):
            yield ("unanalyzable", name, "")
        for name in self._equivalenced_accesses(acc):
            yield ("equivalence", name, "")
        if loop.var.upper() in acc.scalar_writes:
            yield ("index-modified", loop.var, "")
        for name in acc.callees:
            summary = self.summaries.get(name)
            if summary is None or not summary.pure:
                yield ("call", name, "")

        # scalars --------------------------------------------------------
        facts = scan_body(loop.body, self.table)
        reductions = facts.reductions
        for name, cls in sorted(facts.scalars.items()):
            if name not in acc.scalar_writes:
                continue
            if name in reductions:
                red_clauses.append((reductions[name], name))
            elif cls is ScalarClass.WRITE_FIRST or name in acc.do_vars:
                private.append(name)
            else:
                # READ_FIRST (cross-iteration flow) and CONDITIONAL_WRITE
                # (no computable last value) both keep the loop serial
                yield ("scalar-dep", name, "")

        # arrays ---------------------------------------------------------
        sites: Dict[str, List[_ArrayRefSite]] = {}
        for (name, subs, is_write), inner in zip(acc.array_accesses,
                                                 acc.array_loops):
            if self.table.is_array(name):
                sites.setdefault(name, []).append(
                    _ArrayRefSite(subs, is_write, inner))
        loops_ctx = [self._loop_ctx(lp) for lp in info.enclosing + [loop]]
        for array, refs in sorted(sites.items()):
            if not any(r.is_write for r in refs):
                continue
            if is_capture_array(array):
                # unknown() capture arrays are iteration-scratch by
                # construction: written before read within the tagged
                # block, dead afterwards
                private.append(array)
                continue
            witness = self._carried(array, refs, info, loops_ctx)
            if witness:
                if facts.privatizable(array, loop.var):
                    private.append(array)
                else:
                    yield ("array-dep", array, witness)

    # ------------------------------------------------------------------
    def _equivalenced_accesses(self, acc) -> List[str]:
        """Accessed names that are storage-associated via EQUIVALENCE
        (aliasing makes the per-array dependence model unsound)."""
        accessed = (set(acc.scalar_reads) | set(acc.scalar_writes)
                    | {name for name, _, _ in acc.array_accesses}
                    | set(acc.call_args))
        return [name for name in sorted(accessed)
                if (v := self.table.declared(name)) is not None
                and v.equivalenced]

    # ------------------------------------------------------------------
    def _carried(self, array: str, refs: List[_ArrayRefSite], info: LoopInfo,
                 loops_ctx: List[LoopCtx]) -> str:
        """The first dependence among ``refs`` that loop ``info.loop``
        may carry, as ``"<kind> <source> -> <sink>"`` (the source runs in
        the earlier iteration), or ``""`` when it carries none."""
        lvar = info.loop.var.upper()
        forms: List[Optional[List[Optional[AffineForm]]]] = []
        rank = self._declared_rank(array)
        for r in refs:
            forms.append(self._affine_forms(r, info, rank))

        n = len(refs)
        for i in range(n):
            for j in range(i, n):
                if not (refs[i].is_write or refs[j].is_write):
                    continue
                dirs = {lp.var: "=" for lp in info.enclosing}
                dirs[lvar] = "<"
                inner_vars = ({lp.var.upper() for lp in refs[i].inner_loops}
                              | {lp.var.upper() for lp in refs[j].inner_loops})
                for v in inner_vars:
                    dirs[v] = "*"
                seen_ids = set()
                inner_unique = []
                for lp in refs[i].inner_loops + refs[j].inner_loops:
                    if id(lp) not in seen_ids:
                        seen_ids.add(id(lp))
                        inner_unique.append(lp)
                all_loops = loops_ctx + [self._loop_ctx(lp)
                                         for lp in inner_unique]
                if self.tester.may_depend(forms[i], forms[j], all_loops, dirs):
                    return _witness(array, refs[i], refs[j])
                if i != j and self.tester.may_depend(
                        forms[j], forms[i], all_loops, dirs):
                    return _witness(array, refs[j], refs[i])
        return ""

    def _loop_ctx(self, loop: ast.DoLoop) -> LoopCtx:
        seen = self._ctxs.get(id(loop))
        if seen is None:
            seen = self._ctxs[id(loop)] = (loop, loop_ctx(loop))
        return seen[1]

    def _declared_rank(self, array: str) -> int:
        infov = self.table.info(array)
        return len(infov.dims) if infov.dims else 1

    def _affine_forms(self, site: _ArrayRefSite, info: LoopInfo,
                      rank: int) -> List[Optional[AffineForm]]:
        if not site.subs:
            return [None] * rank  # whole-array access: no per-dim info
        # enclosing (outer) loop variables are deliberately NOT index vars:
        # the carried-dependence test fixes them with '=' directions, so a
        # subscript component depending on them — even opaquely, like the
        # paper's IDBEGS(ISS) — is a legitimate loop-invariant symbol that
        # cancels between the two references
        index_vars = ([info.loop.var]
                      + [lp.var for lp in site.inner_loops])
        out: List[Optional[AffineForm]] = []
        for sub in site.subs:
            if isinstance(sub, ast.RangeExpr):
                out.append(None)
            else:
                out.append(extract(sub, index_vars))
        return out


def _witness(array: str, source: _ArrayRefSite, sink: _ArrayRefSite) -> str:
    kind = ("output" if sink.is_write else "flow") if source.is_write \
        else "anti"
    return f"{kind} {_render(array, source)} -> {_render(array, sink)}"


def _render(array: str, site: _ArrayRefSite) -> str:
    if not site.subs:
        return array
    return f"{array}({','.join(expr_to_str(s) for s in site.subs)})"
