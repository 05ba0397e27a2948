"""The reverse inliner (Section III-C3).

For every :class:`~repro.fortran.ast.TaggedBlock` left in the optimized
program, the reverse inliner

1. regenerates the *matching template* for the callee's annotation with
   ``PAT$`` placeholders for the formals (same ``site_id``, so generated
   names — capture arrays, region loop variables, renamed locals — are
   byte-identical to what the forward inliner emitted);
2. unifies the template against the observed (optimized) block body.  The
   matcher tolerates exactly the transformations our Polaris applies:

   * OpenMP directives inserted inside the block (unwrapped and dropped);
   * statement reordering (backtracking multiset match);
   * forward substitution of caller values into the actuals (a formal
     binds to whatever expression the block holds, and array formals
     derive their base offsets at the symbolic-polynomial level).

   Expressions must otherwise match structurally: the normaliser
   neither folds nor reassociates inside a block
   (``scripts/census.py`` knocks each tolerance out and counts what
   changes);

3. replaces the block with the original ``CALL``, its actuals the ones
   recorded in the tag.

A block that cannot be matched raises
:class:`~repro.errors.ReverseInlineError` — the reverse inliner never
silently emits wrong code.  Afterwards the generated declarations
(capture arrays etc.) are removed from the unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.symbolic import from_expr
from repro.annotations.registry import AnnotationRegistry
from repro.annotations.translate import (PATTERN_PREFIX, TranslateOptions,
                                         is_generated_name, translate_call)
from repro.errors import ReverseInlineError
from repro.fortran import ast
from repro.program import Program


@dataclass
class _ArrayMatch:
    name: str
    #: per-dimension base subscripts (None until first subscripted use)
    base: Optional[Tuple[ast.Expr, ...]]
    trailing: Tuple[ast.Expr, ...]


@dataclass
class _Env:
    scalars: Dict[str, ast.Expr] = field(default_factory=dict)
    arrays: Dict[str, _ArrayMatch] = field(default_factory=dict)

    def copy(self) -> "_Env":
        return _Env(dict(self.scalars),
                    {k: _ArrayMatch(v.name, v.base, v.trailing)
                     for k, v in self.arrays.items()})

    def restore(self, other: "_Env") -> None:
        self.scalars = other.scalars
        self.arrays = other.arrays


@dataclass
class ReverseSite:
    caller: str
    callee: str
    site_id: int
    actuals: Tuple[ast.Expr, ...]
    dropped_inner_directives: int


@dataclass
class ReverseResult:
    sites: List[ReverseSite] = field(default_factory=list)

    @property
    def reversed_count(self) -> int:
        return len(self.sites)

    @property
    def dropped_inner_directives(self) -> int:
        return sum(s.dropped_inner_directives for s in self.sites)


@dataclass
class ReverseInliner:
    registry: AnnotationRegistry
    options: TranslateOptions = field(default_factory=TranslateOptions)

    def run(self, program: Program) -> ReverseResult:
        result = ReverseResult()
        for unit in program.units:
            self._unit(program, unit, result)
        program.resolve({s.caller for s in result.sites})
        return result

    # ------------------------------------------------------------------
    def _unit(self, program: Program, unit: ast.ProgramUnit,
              result: ReverseResult) -> None:
        changed = [False]

        table = program.symtab(unit)

        def replace(s: ast.Stmt) -> Optional[List[ast.Stmt]]:
            if not isinstance(s, ast.TaggedBlock):
                return None
            call = self._reverse_block(unit.name, s, result, table)
            changed[0] = True
            return [call]

        unit.body = ast.map_stmts(unit.body, replace)
        if changed[0]:
            self._drop_generated_decls(unit)
            self._scrub_clauses(unit)
            program.invalidate(unit)

    def _scrub_clauses(self, unit: ast.ProgramUnit) -> None:
        """Remove generated names (capture arrays, region loop variables)
        from PRIVATE clauses of directives that survive reversal.  The
        remaining names are real program variables; the runtime honours
        their privatization throughout the dynamic extent of the loop,
        including inside the restored calls."""
        for s in ast.walk_stmts(unit.body):
            if isinstance(s, ast.OmpParallelDo):
                s.private = tuple(n for n in s.private
                                  if not is_generated_name(n))

    def _drop_generated_decls(self, unit: ast.ProgramUnit) -> None:
        kept: List[ast.Decl] = []
        for d in unit.decls:
            entities = getattr(d, "entities", None)
            if entities is not None:
                remaining = [e for e in entities
                             if not is_generated_name(e.name)]
                if not remaining:
                    continue
                d.entities = remaining
            kept.append(d)
        unit.decls = kept

    # ------------------------------------------------------------------
    def _reverse_block(self, caller_name: str, tb: ast.TaggedBlock,
                       result: ReverseResult, table=None) -> ast.CallStmt:
        ann = self.registry.get(tb.callee)
        if ann is None:
            raise ReverseInlineError(
                f"{caller_name}: no annotation for tagged callee "
                f"{tb.callee} (site {tb.site_id})")
        template = translate_call(ann, (), table, tb.site_id, self.options,
                                  pattern_mode=True).stmts
        observed, dropped = _strip_omp(tb.body)
        if not _Matcher().match_block(template, observed, _Env()):
            raise ReverseInlineError(
                f"{caller_name}: tagged block for {tb.callee} "
                f"(site {tb.site_id}) does not match its annotation "
                f"template; refusing to reverse-inline")
        actuals = _recorded_actuals(ann, tb)
        result.sites.append(ReverseSite(caller_name, tb.callee, tb.site_id,
                                        actuals, dropped))
        return ast.CallStmt(tb.callee, actuals, tb.label)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _recorded_actuals(ann, tb: ast.TaggedBlock) -> Tuple[ast.Expr, ...]:
    """The actuals the tag records: the literal original call
    expressions, one per formal."""
    if len(tb.actuals) < len(ann.params):
        raise ReverseInlineError(
            f"tag of {tb.callee} (site {tb.site_id}) records "
            f"{len(tb.actuals)} actuals for {len(ann.params)} formals")
    return tuple(tb.actuals)


def _strip_omp(body: Sequence[ast.Stmt]) -> Tuple[List[ast.Stmt], int]:
    dropped = [0]

    def unwrap(s: ast.Stmt) -> Optional[List[ast.Stmt]]:
        if isinstance(s, ast.OmpParallelDo):
            dropped[0] += 1
            return [s.loop]
        return None

    return ast.map_stmts(list(body), unwrap), dropped[0]


def _has_pattern(e: ast.Expr) -> bool:
    for n in ast.walk_expr(e):
        if isinstance(n, (ast.Var, ast.ArrayRef)) \
                and n.name.upper().startswith(PATTERN_PREFIX):
            return True
    return False


class _Matcher:
    """Structural unification of a template against the observed block.
    Statements may come in any order (a backtracking multiset match);
    within a statement the first mismatch is final."""

    # -- statements ------------------------------------------------------
    def match_block(self, template: Sequence[ast.Stmt],
                    observed: Sequence[ast.Stmt], env: _Env) -> bool:
        if len(template) != len(observed):
            return False
        return self._backtrack(list(template), list(observed), 0,
                               [False] * len(observed), env)

    def _backtrack(self, template, observed, ti, used, env) -> bool:
        if ti == len(template):
            return True
        for oi in range(len(observed)):
            if used[oi]:
                continue
            snapshot = env.copy()
            if self.match_stmt(template[ti], observed[oi], env):
                used[oi] = True
                if self._backtrack(template, observed, ti + 1, used, env):
                    return True
                used[oi] = False
            env.restore(snapshot)
        return False

    def match_stmt(self, t: ast.Stmt, o: ast.Stmt, env: _Env) -> bool:
        if isinstance(t, ast.Assign) and isinstance(o, ast.Assign):
            return (self.match_expr(t.target, o.target, env)
                    and self.match_expr(t.value, o.value, env))
        if isinstance(t, ast.DoLoop) and isinstance(o, ast.DoLoop):
            # a dropped unit step is equivalent to step 1
            step_t = t.step if t.step is not None else ast.IntLit(1)
            step_o = o.step if o.step is not None else ast.IntLit(1)
            return (t.var.upper() == o.var.upper()
                    and self.match_expr(t.start, o.start, env)
                    and self.match_expr(t.stop, o.stop, env)
                    and self.match_expr(step_t, step_o, env)
                    and self.match_block(t.body, o.body, env))
        if isinstance(t, ast.IfBlock) and isinstance(o, ast.IfBlock):
            if len(t.arms) != len(o.arms):
                return False
            for (tc, tb), (oc, ob) in zip(t.arms, o.arms):
                if (tc is None) != (oc is None):
                    return False
                if tc is not None and not self.match_expr(tc, oc, env):
                    return False
                if not self.match_block(tb, ob, env):
                    return False
            return True
        return isinstance(t, ast.Continue) and isinstance(o, ast.Continue)

    # -- expressions -------------------------------------------------------
    def match_expr(self, t: ast.Expr, o: ast.Expr, env: _Env) -> bool:
        t = self._resolve(t, env)
        if not _has_pattern(t):
            return t == o
        if isinstance(t, ast.Var) and t.name.upper().startswith(
                PATTERN_PREFIX):
            formal = t.name.upper()[len(PATTERN_PREFIX):]
            bound = env.scalars.get(formal)
            if bound is not None:
                return bound == o
            env.scalars[formal] = o
            return True
        if isinstance(t, ast.ArrayRef) and t.name.upper().startswith(
                PATTERN_PREFIX):
            return self._match_array_pattern(t, o, env)
        if isinstance(t, ast.BinOp):
            return (isinstance(o, ast.BinOp) and t.op == o.op
                    and self.match_expr(t.left, o.left, env)
                    and self.match_expr(t.right, o.right, env))
        if isinstance(t, ast.UnOp):
            return (isinstance(o, ast.UnOp) and t.op == o.op
                    and self.match_expr(t.operand, o.operand, env))
        if isinstance(t, (ast.ArrayRef, ast.FuncRef)):
            # an unresolved name reference may have either shape
            if not isinstance(o, (ast.ArrayRef, ast.FuncRef)) \
                    or t.name.upper() != o.name.upper():
                return False
            t_args = t.subs if isinstance(t, ast.ArrayRef) else t.args
            o_args = o.subs if isinstance(o, ast.ArrayRef) else o.args
            return len(t_args) == len(o_args) and all(
                self.match_expr(ta, oa, env)
                for ta, oa in zip(t_args, o_args))
        if isinstance(t, ast.RangeExpr) and isinstance(o, ast.RangeExpr):
            for tp, op_ in ((t.lo, o.lo), (t.hi, o.hi), (t.step, o.step)):
                if (tp is None) != (op_ is None):
                    return False
                if tp is not None and not self.match_expr(tp, op_, env):
                    return False
            return True
        return False

    # ------------------------------------------------------------------
    def _resolve(self, t: ast.Expr, env: _Env) -> ast.Expr:
        def rewrite(e: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(e, ast.Var) and e.name.upper().startswith(
                    PATTERN_PREFIX):
                bound = env.scalars.get(
                    e.name.upper()[len(PATTERN_PREFIX):])
                if bound is not None:
                    return bound
            return None

        return ast.map_expr(t, rewrite)

    def _match_array_pattern(self, t: ast.ArrayRef, o: ast.Expr,
                             env: _Env) -> bool:
        formal = t.name.upper()[len(PATTERN_PREFIX):]
        if not isinstance(o, ast.ArrayRef):
            return False
        m = env.arrays.get(formal)
        if m is not None and m.name != o.name.upper():
            return False
        r = len(t.subs)
        if len(o.subs) < r:
            return False
        if any(isinstance(ts, ast.RangeExpr) for ts in t.subs):
            # region occurrence (capture-array operand): the forward
            # translation materialized bounds and offsets the template
            # cannot reconstruct — bind the array name only; point
            # occurrences elsewhere pin down the base offsets
            if m is None:
                env.arrays[formal] = _ArrayMatch(o.name.upper(), None, ())
            return True
        # resolve template subscripts; they must be pattern-free to derive
        # base offsets
        resolved: List[ast.Expr] = []
        for ts in t.subs:
            rs = self._resolve(ts, env)
            if _has_pattern(rs):
                # try matching subscripts pairwise first (binds patterns),
                # deriving base offsets only for pattern-free dims
                if not self.match_expr(rs, o.subs[len(resolved)], env):
                    return False
                rs = self._resolve(rs, env)
                if _has_pattern(rs):
                    return False
            resolved.append(rs)
        base: List[ast.Expr] = []
        for k in range(r):
            diff = from_expr(o.subs[k]) - from_expr(resolved[k])
            if any(is_generated_name(tok) for tok in diff.variables()):
                return False  # offset varies with a generated loop var
            base_poly = diff + from_expr(ast.IntLit(1))
            base.append(base_poly.to_expr())
        trailing = o.subs[r:]
        if m is None:
            env.arrays[formal] = _ArrayMatch(o.name.upper(), tuple(base),
                                             trailing)
            return True
        if m.base is None:
            m.base = tuple(base)
            m.trailing = trailing
            return True
        return m.base == tuple(base) and m.trailing == trailing
