"""Polaris-style normalization transformations.

Three passes run before dependence analysis (and their effects are what
the reverse inliner's pattern matcher must tolerate, per Section III-C of
the paper):

* **parameter propagation** — PARAMETER constants fold into expressions;
* **induction-variable substitution** — ``I = I + c`` inside a loop is
  removed, uses of ``I`` are rewritten to the closed form over the loop
  index, and the final value is reassigned after the loop.  This is what
  makes the paper's Figure-2 inner loop analyzable (``X2(I)`` becomes
  ``X2(I + J)`` after substitution);
* **forward substitution** — single definitions of integer scalars
  propagate into later uses within the same block scope
  (``ID = IDBEGS(ISS) + 1 + K`` flows into ``FSMP``'s subscripts), which
  turns many symbolic subscripts affine.

All passes are semantics-preserving source-to-source rewrites over the
AST; the differential tests in ``tests/runtime`` execute programs before
and after normalization and compare memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.analysis.defuse import collect_accesses
from repro.analysis.symbolic import from_expr
from repro.fortran import ast
from repro.fortran.symbols import SymbolTable, build_symbol_table


def normalize_unit(unit: ast.ProgramUnit,
                   table: Optional[SymbolTable] = None) -> ast.ProgramUnit:
    """Run all normalization passes on one unit, in place."""
    table = table or build_symbol_table(unit)
    propagate_parameters(unit, table)
    unit.body = _substitute_inductions_in(unit.body, table)
    forward_substitute_block(unit.body, table)
    return unit


# ---------------------------------------------------------------------------
# parameter propagation
# ---------------------------------------------------------------------------

def propagate_parameters(unit: ast.ProgramUnit, table: SymbolTable) -> None:
    values: Dict[str, ast.Expr] = {}
    for name, info in table.variables.items():
        if info.parameter_value is not None:
            c = from_expr(info.parameter_value).constant_value()
            if c is not None:
                values[name] = ast.IntLit(c)
            elif isinstance(info.parameter_value, ast.RealLit):
                values[name] = info.parameter_value
    if not values:
        return  # nothing to fold: leave every statement as it is

    def rewrite(e: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(e, ast.Var) and e.name.upper() in values:
            return ast.clone(values[e.name.upper()])
        return None

    unit.body = ast.map_stmt_exprs(unit.body, rewrite)


# ---------------------------------------------------------------------------
# induction variable substitution
# ---------------------------------------------------------------------------

@dataclass
class _Increment:
    var: str
    amount: int  # signed constant increment
    position: int  # index of the increment statement at top level


def _substitute_inductions_in(body: List[ast.Stmt],
                              table: SymbolTable) -> List[ast.Stmt]:
    """Recursively apply induction substitution, innermost loops first
    (nested blocks in place: only a loop the pattern fits is rebuilt)."""
    out: List[ast.Stmt] = []
    for s in body:
        if isinstance(s, ast.DoLoop):
            s.body = _substitute_inductions_in(s.body, table)
            out.extend(substitute_inductions(s, table))
            continue
        if isinstance(s, ast.IfBlock):
            s.arms = [(c, _substitute_inductions_in(b, table))
                      for c, b in s.arms]
        elif isinstance(s, ast.TaggedBlock):
            s.body = _substitute_inductions_in(s.body, table)
        out.append(s)
    return out


def _find_increment(loop: ast.DoLoop) -> Optional[_Increment]:
    """Find the unique top-level ``V = V +- c`` statement, if any."""
    found: Optional[_Increment] = None
    for idx, s in enumerate(loop.body):
        if not isinstance(s, ast.Assign) or not isinstance(s.target, ast.Var):
            continue
        v = s.target.name.upper()
        delta = from_expr(s.value) - from_expr(ast.Var(v))
        amount = delta.constant_value()
        if amount is None or amount == 0:
            continue
        if found is not None:
            return None  # only the single-increment pattern is handled
        found = _Increment(v, amount, idx)
    return found


def substitute_inductions(loop: ast.DoLoop,
                          table: SymbolTable) -> List[ast.Stmt]:
    """Rewrite the single-increment induction pattern in ``loop``.

    Returns the replacement statement list (the rewritten loop plus the
    final-value assignment), or ``[loop]`` unchanged when the pattern does
    not apply safely.
    """
    inc = _find_increment(loop)
    if inc is None:
        return [loop]
    step = from_expr(loop.step).constant_value() if loop.step else 1
    if step != 1:
        return [loop]
    v = inc.var
    if v == loop.var.upper():
        return [loop]
    # V must not be written anywhere else in the body
    writes_elsewhere = 0
    for idx, s in enumerate(loop.body):
        acc = collect_accesses([s], table)
        if v in acc.scalar_writes or any(
                a == v and w for a, _, w in acc.array_accesses):
            writes_elsewhere += 1
        if acc.has_call and v in acc.call_args:
            return [loop]
    if writes_elsewhere != 1:  # exactly the increment itself
        return [loop]
    # the loop bounds must not depend on V
    bound_acc_names = set()
    for e in (loop.start, loop.stop):
        bound_acc_names |= from_expr(e).names_mentioned()
    if v in bound_acc_names:
        return [loop]

    # iteration number expression: (i - start); uses before the increment
    # see V + c*(i - start), uses at/after see V + c*(i - start + 1)
    base = ast.BinOp("-", ast.Var(loop.var), ast.clone(loop.start))

    def closed_form(extra: int) -> ast.Expr:
        count: ast.Expr = ast.clone(base)
        if extra:
            count = ast.BinOp("+", count, ast.IntLit(extra))
        scaled: ast.Expr = count if inc.amount == 1 else ast.BinOp(
            "*", ast.IntLit(abs(inc.amount)), count)
        op = "+" if inc.amount > 0 else "-"
        return ast.BinOp(op, ast.Var(v), scaled)

    def substitute(stmts: List[ast.Stmt], extra: int) -> List[ast.Stmt]:
        def rewrite(e: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(e, ast.Var) and e.name.upper() == v:
                return closed_form(extra)
            return None
        return ast.map_stmt_exprs(stmts, rewrite)

    before = substitute(loop.body[:inc.position], 0)
    after = substitute(loop.body[inc.position + 1:], 1)
    new_loop = ast.DoLoop(loop.var, loop.start, loop.stop, loop.step,
                          before + after, loop.label, None)
    ast.copy_loop_meta(loop, new_loop)
    trip = ast.BinOp("+", ast.BinOp("-", ast.clone(loop.stop),
                                    ast.clone(loop.start)), ast.IntLit(1))
    total: ast.Expr = trip if abs(inc.amount) == 1 else ast.BinOp(
        "*", ast.IntLit(abs(inc.amount)), trip)
    final = ast.Assign(ast.Var(v), ast.BinOp(
        "+" if inc.amount > 0 else "-", ast.Var(v), total))
    # guard the final assignment against zero-trip loops: V must keep its
    # entry value when the loop body never runs
    guard = ast.IfBlock([(ast.BinOp(">=", ast.clone(loop.stop),
                                    ast.clone(loop.start)), [final])])
    return [new_loop, guard]


# ---------------------------------------------------------------------------
# forward substitution
# ---------------------------------------------------------------------------

_MAX_SUBST_NODES = 16


def _expr_size(e: ast.Expr) -> int:
    return sum(1 for _ in ast.walk_expr(e))


def _expr_names(e: ast.Expr) -> Set[str]:
    names: Set[str] = set()
    for n in ast.walk_expr(e):
        if isinstance(n, (ast.Var, ast.ArrayRef, ast.FuncRef)):
            names.add(n.name.upper())
    return names


def forward_substitute_block(body: List[ast.Stmt],
                             table: SymbolTable) -> None:
    """Propagate single integer scalar definitions into later uses, in
    place, within one block scope (recursing into nested blocks with the
    proper invalidation)."""
    _forward(body, table, {})


def _forward(body: List[ast.Stmt], table: SymbolTable,
             env: Dict[str, ast.Expr]) -> None:
    for i, s in enumerate(body):
        if getattr(s, "label", None) is not None:
            # a labeled statement is a potential GOTO join point: control
            # may arrive carrying different values than the fall-through
            # path, so no binding survives it
            env.clear()
        body[i] = s = _subst_into(s, env, table)
        _update_env(s, env, table)


def _subst_into(s: ast.Stmt, env: Dict[str, ast.Expr],
                table: SymbolTable) -> ast.Stmt:
    if not env:
        # every rewrite is the identity and every invalidation a no-op;
        # nested blocks are still entered: an assignment inside may open
        # a binding
        if isinstance(s, ast.IfBlock):
            for _, arm in s.arms:
                _forward(arm, table, {})
        elif isinstance(s, (ast.DoLoop, ast.TaggedBlock)):
            _forward(s.body, table, {})
        return s

    def rewrite(e: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(e, ast.Var) and e.name.upper() in env:
            return ast.clone(env[e.name.upper()])
        return None

    if isinstance(s, ast.Assign):
        tgt = s.target
        if isinstance(tgt, ast.ArrayRef):
            tgt = ast.ArrayRef(tgt.name,
                               tuple(ast.map_expr(x, rewrite)
                                     for x in tgt.subs))
        return ast.Assign(tgt, ast.map_expr(s.value, rewrite), s.label)
    if isinstance(s, ast.CallStmt):
        # only substitute inside non-lvalue argument positions is unsafe to
        # decide here; leave call arguments untouched (by-reference)
        return s
    if isinstance(s, ast.IfBlock):
        arms = []
        for cond, arm in s.arms:
            new_cond = ast.map_expr(cond, rewrite) if cond is not None else None
            arm_env = dict(env)
            _forward(arm, table, arm_env)
            arms.append((new_cond, arm))
        # conservatively drop every binding written in any arm
        written: Set[str] = set()
        for _, arm in s.arms:
            acc = collect_accesses(arm, table)
            written |= acc.scalar_writes
            written |= {a for a, _, w in acc.array_accesses if w}
            if acc.has_call or acc.has_io:
                env.clear()
        _invalidate(env, written)
        return ast.IfBlock(arms, s.label)
    if isinstance(s, ast.DoLoop):
        start = ast.map_expr(s.start, rewrite)
        stop = ast.map_expr(s.stop, rewrite)
        step = ast.map_expr(s.step, rewrite) if s.step is not None else None
        acc = collect_accesses(s.body, table)
        written = set(acc.scalar_writes) | {s.var.upper()} | {
            a for a, _, w in acc.array_accesses if w}
        if acc.has_call or acc.has_io:
            env.clear()
        _invalidate(env, written)
        inner_env = dict(env)
        _forward(s.body, table, inner_env)
        return ast.copy_loop_meta(s, ast.DoLoop(
            s.var, start, stop, step, s.body, s.label, s.term_label))
    if isinstance(s, ast.TaggedBlock):
        inner_env = dict(env)
        _forward(s.body, table, inner_env)
        return s
    if isinstance(s, ast.IoStmt) and s.kind != "READ":
        return ast.IoStmt(s.kind, s.control,
                          tuple(ast.map_expr(x, rewrite) for x in s.items),
                          s.label)
    return s


def _update_env(s: ast.Stmt, env: Dict[str, ast.Expr],
                table: SymbolTable) -> None:
    if isinstance(s, ast.Assign) and isinstance(s.target, ast.Var) \
            and not table.is_array(s.target.name):
        v = s.target.name.upper()
        _invalidate(env, {v})
        rhs = s.value
        if (table.info(v).typename == "INTEGER"
                and v not in _expr_names(rhs)
                and _expr_size(rhs) <= _MAX_SUBST_NODES
                and not any(isinstance(n, ast.FuncRef)
                            for n in ast.walk_expr(rhs))):
            env[v] = rhs
        return
    if not env:
        return  # nothing to invalidate
    acc = collect_accesses([s], table)
    if acc.has_call or acc.has_opaque:
        # calls and opaque/ENTRY statements may write anything
        env.clear()
        return
    written = set(acc.scalar_writes) | {
        a for a, _, w in acc.array_accesses if w}
    _invalidate(env, written)


def _invalidate(env: Dict[str, ast.Expr], written: Set[str]) -> None:
    if not written:
        return
    dead = [v for v, rhs in env.items()
            if v in written or (_expr_names(rhs) & written)]
    for v in dead:
        del env[v]
    for v in written:
        env.pop(v, None)
