"""Scalar and array def/use collection: the one walk of a statement list.

:func:`collect_accesses` answers, for a statement or a statement list,
which scalar names are written, which are read, which array references
occur with read/write classification and the DO loops enclosing each,
which procedures are called, and how control may leave the region
(GOTO, STOP, RETURN).  Loop legality, privatization, the side-effect
summaries, the call graph, the inlining heuristics and the
forward-substitution pass all read it instead of re-walking the body.

Array accesses: ``A(subs)`` on the left of an assignment is a *write of
array A* plus *reads* of everything in the subscripts.  A whole-array
region write ``A(1:N) = e`` is a write of A.  An array name passed to a
CALL is treated by the caller of these helpers via side-effect summaries —
here it is reported in ``call_args``.  Accesses are listed in textual
order (an IF block's conditions each before their block; an
assignment's value, then the target's subscripts, then the target),
which is the order the dependence tester pairs them in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from repro.fortran import ast
from repro.fortran.intrinsics import is_intrinsic
from repro.fortran.symbols import SymbolTable


@dataclass
class AccessSet:
    """Accumulated accesses for a statement region."""

    scalar_reads: Set[str] = field(default_factory=set)
    scalar_writes: Set[str] = field(default_factory=set)
    #: (array name, subscripts, is_write) in textual order
    array_accesses: List[Tuple[str, Tuple[ast.Expr, ...], bool]] = \
        field(default_factory=list)
    #: the DO loops of the region enclosing each ``array_accesses``
    #: entry (same index), outermost first
    array_loops: List[Tuple[ast.DoLoop, ...]] = field(default_factory=list)
    #: names passed as CALL arguments (may be read and/or written)
    call_args: Set[str] = field(default_factory=set)
    #: the CALL statements, in walk order
    calls: List[ast.CallStmt] = field(default_factory=list)
    #: non-intrinsic function references (upper case), statement by
    #: statement in walk order, each statement's in ``ast.stmt_exprs``
    #: order
    funcs: List[str] = field(default_factory=list)
    #: index variables of the DO loops in the region
    do_vars: Set[str] = field(default_factory=set)
    has_io: bool = False
    has_stop: bool = False
    has_goto: bool = False
    has_return: bool = False
    #: some RETURN carries an alternate-return selector (``RETURN n``)
    has_alt_return: bool = False
    #: names accessed through a construct the dependence model cannot
    #: represent (CHARACTER substring references on scalars, assigned-GOTO
    #: label variables); loops touching them must stay serial
    unanalyzable: Set[str] = field(default_factory=set)
    #: region contains an Opaque (unlowered) statement or an ENTRY point —
    #: it may read or write anything
    has_opaque: bool = False

    @property
    def has_call(self) -> bool:
        return bool(self.calls)

    @property
    def callees(self) -> List[str]:
        """Each called procedure once, upper case: CALL statements
        first, then function references."""
        return list(dict.fromkeys([c.name.upper() for c in self.calls]
                                  + self.funcs))


def _is_substring(e: ast.ArrayRef, table: SymbolTable) -> bool:
    """True for a parenthesized reference to a *declared* non-array name —
    after call resolution that can only be a CHARACTER substring."""
    v = table.declared(e.name)
    return v is not None and not v.is_array


def _expr_reads(e: ast.Expr, table: SymbolTable, acc: AccessSet,
                inner: Tuple[ast.DoLoop, ...]) -> None:
    cls = e.__class__
    if cls is ast.Var:
        if table.is_array(e.name):
            # whole-array reference (argument positions); record as an
            # unsubscripted read
            _array(acc, e.name, (), False, inner)
        else:
            acc.scalar_reads.add(e.name.upper())
    elif cls is ast.BinOp:
        _expr_reads(e.left, table, acc, inner)
        _expr_reads(e.right, table, acc, inner)
    elif cls is ast.ArrayRef:
        if _is_substring(e, table):
            # a parenthesized reference to a declared non-array name that
            # survived call resolution is a CHARACTER substring: model it
            # as a scalar read and flag the name unanalyzable (the
            # dependence tester has no model of sub-string overlap)
            acc.scalar_reads.add(e.name.upper())
            acc.unanalyzable.add(e.name.upper())
        else:
            _array(acc, e.name, e.subs, False, inner)
        for s in e.subs:
            _expr_reads(s, table, acc, inner)
    elif cls is ast.FuncRef:
        if not is_intrinsic(e.name):
            acc.funcs.append(e.name.upper())
        for a in e.args:
            _expr_reads(a, table, acc, inner)
    elif cls is ast.UnOp:
        _expr_reads(e.operand, table, acc, inner)
    elif cls is ast.RangeExpr:
        for part in (e.lo, e.hi, e.step):
            if part is not None:
                _expr_reads(part, table, acc, inner)


def _array(acc: AccessSet, name: str, subs: Tuple[ast.Expr, ...],
           is_write: bool, inner: Tuple[ast.DoLoop, ...]) -> None:
    acc.array_accesses.append((name.upper(), subs, is_write))
    acc.array_loops.append(inner)


def _func_names(exprs: Sequence[ast.Expr]) -> List[str]:
    """The non-intrinsic function references in ``exprs`` that are
    calls but not accesses (a tagged block's original actuals, an
    alternate-return selector)."""
    return [n.name.upper() for e in exprs for n in ast.walk_expr(e)
            if isinstance(n, ast.FuncRef) and not is_intrinsic(n.name)]


def collect_accesses(body: Sequence[ast.Stmt],
                     table: SymbolTable) -> AccessSet:
    """Collect all accesses in ``body`` (recursing into nested blocks)."""
    acc = AccessSet()
    _walk(body, table, acc, ())
    return acc


def _walk(body: Sequence[ast.Stmt], table: SymbolTable, acc: AccessSet,
          inner: Tuple[ast.DoLoop, ...]) -> None:
    for s in body:
        cls = s.__class__
        if cls is ast.IfBlock:
            # each condition's accesses before its block, but every
            # condition's function references before the blocks' (the
            # statement's own expressions come first)
            mark, conds = len(acc.funcs), []
            for cond, arm in s.arms:
                if cond is not None:
                    start = len(acc.funcs)
                    _expr_reads(cond, table, acc, inner)
                    conds += acc.funcs[start:]
                    del acc.funcs[start:]
                _walk(arm, table, acc, inner)
            acc.funcs[mark:mark] = conds
        elif cls is ast.DoLoop:
            acc.scalar_writes.add(s.var.upper())
            acc.do_vars.add(s.var.upper())
            _expr_reads(s.start, table, acc, inner)
            _expr_reads(s.stop, table, acc, inner)
            if s.step is not None:
                _expr_reads(s.step, table, acc, inner)
            _walk(s.body, table, acc, inner + (s,))
        elif cls is ast.OmpParallelDo:
            _walk([s.loop], table, acc, inner)
        elif cls is ast.TaggedBlock:
            acc.funcs += _func_names(s.actuals)
            _walk(s.body, table, acc, inner)
        else:
            _stmt_accesses(s, table, acc, inner)


def _stmt_accesses(s: ast.Stmt, table: SymbolTable, acc: AccessSet,
                   inner: Tuple[ast.DoLoop, ...]) -> None:
    """The accesses of a statement without nested statements."""
    cls = s.__class__
    if cls is ast.Assign:
        mark = len(acc.funcs)
        _expr_reads(s.value, table, acc, inner)
        split = len(acc.funcs)
        if s.target.__class__ is ast.Var:
            if table.is_array(s.target.name):
                _array(acc, s.target.name, (), True, inner)
            else:
                acc.scalar_writes.add(s.target.name.upper())
        elif _is_substring(s.target, table):
            # substring write: conservatively a scalar write of the whole
            # variable, and unanalyzable (partial update)
            acc.scalar_writes.add(s.target.name.upper())
            acc.unanalyzable.add(s.target.name.upper())
            for sub in s.target.subs:
                _expr_reads(sub, table, acc, inner)
        else:
            for sub in s.target.subs:
                _expr_reads(sub, table, acc, inner)
            _array(acc, s.target.name, s.target.subs, True, inner)
        if mark < split < len(acc.funcs):
            # the target's function references precede the value's
            acc.funcs[mark:] = acc.funcs[split:] + acc.funcs[mark:split]
    elif cls is ast.CallStmt:
        acc.calls.append(s)
        for a in s.args:
            if a.__class__ is ast.AltReturn:
                # the callee may RETURN n straight to a labelled statement
                # in this unit: unstructured control flow at the call site
                acc.has_goto = True
                continue
            _expr_reads(a, table, acc, inner)
            root = _root_name(a)
            if root:
                acc.call_args.add(root)
    elif cls is ast.IoStmt:
        acc.has_io = True
        for item in s.items:
            if s.kind == "READ":
                # READ writes its item list
                if item.__class__ is ast.Var \
                        and not table.is_array(item.name):
                    acc.scalar_writes.add(item.name.upper())
                elif item.__class__ is ast.ArrayRef:
                    for sub in item.subs:
                        _expr_reads(sub, table, acc, inner)
                    _array(acc, item.name, item.subs, True, inner)
                else:
                    _expr_reads(item, table, acc, inner)
            else:
                _expr_reads(item, table, acc, inner)
    elif cls is ast.Return:
        acc.has_return = True
        if s.alt is not None:
            acc.has_alt_return = True
            acc.funcs += _func_names([s.alt])
    elif cls is ast.Stop:
        acc.has_stop = True
    elif cls is ast.Goto:
        acc.has_goto = True
    elif cls is ast.ComputedGoto:
        acc.has_goto = True
        _expr_reads(s.index, table, acc, inner)
    elif cls is ast.AssignedGoto:
        acc.has_goto = True
        acc.scalar_reads.add(s.var.upper())
    elif cls is ast.LabelAssign:
        acc.scalar_writes.add(s.var.upper())
    elif cls is ast.EntryStmt or cls is ast.Opaque:
        acc.has_opaque = True
    # Continue carries no accesses


def _root_name(e: ast.Expr) -> str:
    if isinstance(e, (ast.Var, ast.ArrayRef)):
        return e.name.upper()
    return ""
