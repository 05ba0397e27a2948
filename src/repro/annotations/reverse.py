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
   * constant propagation and expression reassociation (equivalence is
     checked at the symbolic-polynomial level);
   * forward substitution of block-local definitions (template-side
     definition unfolding);

3. derives the actual arguments from the unification bindings, cross-checks
   them against the actuals recorded in the tag, and replaces the block
   with the original ``CALL``.

A block that cannot be matched raises
:class:`~repro.errors.ReverseInlineError` — the reverse inliner never
silently emits wrong code.  Afterwards the generated declarations
(capture arrays etc.) are removed from the unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.symbolic import exprs_equivalent, from_expr
from repro.annotations.registry import AnnotationRegistry
from repro.annotations.translate import (PATTERN_PREFIX, TranslateOptions,
                                         is_generated_name, translate_call)
from repro.errors import ReverseInlineError
from repro.fortran import ast
from repro.program import Program

_MAX_UNFOLD_DEPTH = 4


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
    #: False when the matcher-derived actuals differ from the recorded
    #: ones — legal when normalization (forward substitution, constant
    #: propagation) rewrote the caller, but worth surfacing
    derived_agrees: bool = True


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
        env = _Env()
        defs = _collect_defs(template)
        matcher = _Matcher(defs)
        if not matcher.match_block(template, observed, env):
            raise ReverseInlineError(
                f"{caller_name}: tagged block for {tb.callee} "
                f"(site {tb.site_id}) does not match its annotation "
                f"template; refusing to reverse-inline")
        actuals, agrees = self._derive_actuals(ann, env, tb)
        result.sites.append(ReverseSite(caller_name, tb.callee, tb.site_id,
                                        actuals, dropped, agrees))
        return ast.CallStmt(tb.callee, actuals, tb.label)

    def _derive_actuals(self, ann, env: _Env, tb: ast.TaggedBlock):
        """The matcher-derived actuals, cross-checked against the tag.

        The recorded actual is preferred when both are available: it is
        the literal original call expression, while the derived one may
        reflect normalizations (``ID`` forward-substituted to
        ``IDBEGS(ISS)+1+K``) that are equivalent but noisier.  Genuine
        divergence is surfaced via ``derived_agrees``.
        """
        recorded = tb.actuals
        out: List[ast.Expr] = []
        agrees = True
        dims = ann.declared_dims()
        for k, p in enumerate(ann.params):
            p = p.upper()
            derived: Optional[ast.Expr] = None
            if p in dims:
                m = env.arrays.get(p)
                if m is not None:
                    derived = _array_actual(m)
            else:
                derived = env.scalars.get(p)
            rec = recorded[k] if k < len(recorded) else None
            if derived is None and rec is None:
                raise ReverseInlineError(
                    f"cannot derive actual for formal {p} of "
                    f"{tb.callee} (site {tb.site_id})")
            if derived is not None and rec is not None \
                    and not _actuals_agree(derived, rec):
                agrees = False
            out.append(rec if rec is not None else derived)
        return tuple(out), agrees


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _strip_omp(body: Sequence[ast.Stmt]) -> Tuple[List[ast.Stmt], int]:
    dropped = [0]

    def unwrap(s: ast.Stmt) -> Optional[List[ast.Stmt]]:
        if isinstance(s, ast.OmpParallelDo):
            dropped[0] += 1
            return [s.loop]
        return None

    return ast.map_stmts(list(body), unwrap), dropped[0]


def _collect_defs(template: Sequence[ast.Stmt]) -> Dict[str, ast.Expr]:
    """Template-local scalar definitions available for unfolding (our
    forward substitution rewrites *uses*, keeping the defining
    assignment)."""
    defs: Dict[str, ast.Expr] = {}
    for s in ast.walk_stmts(template):
        if isinstance(s, ast.Assign) and isinstance(s.target, ast.Var):
            name = s.target.name.upper()
            if name in defs:
                defs.pop(name)  # multiply-defined: not safe to unfold
            else:
                defs[name] = s.value
    return defs


def _array_actual(m: _ArrayMatch) -> ast.Expr:
    if m.base is None or (not m.trailing and all(
            b == ast.IntLit(1) for b in m.base)):
        return ast.Var(m.name)
    return ast.ArrayRef(m.name, m.base + m.trailing)


def _actuals_agree(derived: ast.Expr, recorded: ast.Expr) -> bool:
    if exprs_equivalent(derived, recorded):
        return True
    # Var(A) vs A(1,1,...): both denote the array's first element region
    for whole, element in ((derived, recorded), (recorded, derived)):
        if isinstance(whole, ast.Var) and isinstance(element, ast.ArrayRef) \
                and whole.name.upper() == element.name.upper() \
                and all(sub == ast.IntLit(1) for sub in element.subs):
            return True
    return False


def _has_pattern(e: ast.Expr) -> bool:
    for n in ast.walk_expr(e):
        if isinstance(n, (ast.Var, ast.ArrayRef)) \
                and n.name.upper().startswith(PATTERN_PREFIX):
            return True
    return False


class _Matcher:
    def __init__(self, defs: Dict[str, ast.Expr]):
        self.defs = defs

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
        if isinstance(o, ast.OmpParallelDo):
            o = o.loop
        if isinstance(t, ast.Assign) and isinstance(o, ast.Assign):
            return (self.match_expr(t.target, o.target, env)
                    and self.match_expr(t.value, o.value, env))
        if isinstance(t, ast.DoLoop) and isinstance(o, ast.DoLoop):
            if t.var.upper() != o.var.upper():
                return False
            if not self.match_expr(t.start, o.start, env):
                return False
            if not self.match_expr(t.stop, o.stop, env):
                return False
            if (t.step is None) != (o.step is None):
                # a dropped unit step is equivalent to step 1
                step_t = t.step if t.step is not None else ast.IntLit(1)
                step_o = o.step if o.step is not None else ast.IntLit(1)
                if not self.match_expr(step_t, step_o, env):
                    return False
            elif t.step is not None and not self.match_expr(
                    t.step, o.step, env):
                return False
            return self.match_block(t.body, o.body, env)
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
        if isinstance(t, ast.Continue) and isinstance(o, ast.Continue):
            return True
        return False

    # -- expressions -------------------------------------------------------
    def match_expr(self, t: ast.Expr, o: ast.Expr, env: _Env,
                   depth: int = 0) -> bool:
        t = self._resolve(t, env)
        if not _has_pattern(t):
            if exprs_equivalent(t, o):
                return True
            return self._match_unfolding(t, o, env, depth)
        if isinstance(t, ast.Var) and t.name.upper().startswith(
                PATTERN_PREFIX):
            formal = t.name.upper()[len(PATTERN_PREFIX):]
            bound = env.scalars.get(formal)
            if bound is not None:
                return exprs_equivalent(bound, o)
            env.scalars[formal] = o
            return True
        if isinstance(t, ast.ArrayRef) and t.name.upper().startswith(
                PATTERN_PREFIX):
            return self._match_array_pattern(t, o, env, depth)
        # structural recursion
        if isinstance(t, ast.BinOp) and isinstance(o, ast.BinOp) \
                and t.op == o.op:
            snapshot = env.copy()
            if self.match_expr(t.left, o.left, env, depth) \
                    and self.match_expr(t.right, o.right, env, depth):
                return True
            env.restore(snapshot)
        if isinstance(t, ast.UnOp) and isinstance(o, ast.UnOp) \
                and t.op == o.op:
            return self.match_expr(t.operand, o.operand, env, depth)
        if isinstance(t, ast.ArrayRef) \
                and isinstance(o, (ast.ArrayRef, ast.FuncRef)) \
                and t.name.upper() == o.name.upper():
            o_subs = o.subs if isinstance(o, ast.ArrayRef) else o.args
            if len(t.subs) == len(o_subs):
                snapshot = env.copy()
                if all(self.match_expr(ts, os_, env, depth)
                       for ts, os_ in zip(t.subs, o_subs)):
                    return True
                env.restore(snapshot)
        if isinstance(t, ast.FuncRef) and isinstance(o, (ast.FuncRef,
                                                         ast.ArrayRef)) \
                and t.name.upper() == o.name.upper():
            o_args = o.args if isinstance(o, ast.FuncRef) else o.subs
            if len(t.args) == len(o_args):
                snapshot = env.copy()
                if all(self.match_expr(ta, oa, env, depth)
                       for ta, oa in zip(t.args, o_args)):
                    return True
                env.restore(snapshot)
        if isinstance(t, ast.RangeExpr) and isinstance(o, ast.RangeExpr):
            for tp, op_ in ((t.lo, o.lo), (t.hi, o.hi), (t.step, o.step)):
                if (tp is None) != (op_ is None):
                    return False
                if tp is not None and not self.match_expr(tp, op_, env,
                                                          depth):
                    return False
            return True
        # arithmetic fallback: solve for a single unbound scalar pattern
        if self._match_linear(t, o, env):
            return True
        return self._match_unfolding(t, o, env, depth)

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

    def _match_unfolding(self, t: ast.Expr, o: ast.Expr, env: _Env,
                         depth: int) -> bool:
        """Tolerate forward substitution: unfold template-local variable
        definitions and retry."""
        if depth >= _MAX_UNFOLD_DEPTH:
            return False
        unfolded = [False]

        def rewrite(e: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(e, ast.Var):
                name = e.name.upper()
                if is_generated_name(name) and name in self.defs:
                    unfolded[0] = True
                    return self.defs[name]
            return None

        t2 = ast.map_expr(t, rewrite)
        if not unfolded[0]:
            return False
        return self.match_expr(t2, o, env, depth + 1)

    def _match_array_pattern(self, t: ast.ArrayRef, o: ast.Expr,
                             env: _Env, depth: int) -> bool:
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
                if not self.match_expr(rs, o.subs[len(resolved)], env,
                                       depth + 1):
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
        if len(m.base) != len(base) or len(m.trailing) != len(trailing):
            return False
        for a, b in zip(m.base, base):
            if not exprs_equivalent(a, b):
                return False
        for a, b in zip(m.trailing, trailing):
            if not exprs_equivalent(a, b):
                return False
        return True

    def _match_linear(self, t: ast.Expr, o: ast.Expr, env: _Env) -> bool:
        """Solve ``poly(t) == poly(o)`` for exactly one unbound scalar
        pattern variable appearing linearly outside any atom."""
        t = self._resolve(t, env)
        pt = from_expr(t)
        po = from_expr(o)
        pattern_tokens = [tok for tok in pt.variables()
                          if tok.startswith(PATTERN_PREFIX)]
        if len(pattern_tokens) != 1:
            return False
        token = pattern_tokens[0]
        if pt.degree_in(token) != 1:
            return False
        coeff = pt.coeff(token)
        if coeff == 0:
            return False  # the pattern only occurs in nonlinear monomials
        rest = pt.without([token])
        residual = po - rest
        # residual must be divisible by coeff
        if any(c % coeff for c in residual.terms.values()):
            return False
        solved = type(residual)(
            {m: c // coeff for m, c in residual.terms.items()},
            dict(residual.atom_names))
        formal = token[len(PATTERN_PREFIX):]
        expr = solved.to_expr()
        bound = env.scalars.get(formal)
        if bound is not None:
            return exprs_equivalent(bound, expr)
        env.scalars[formal] = expr
        return True
