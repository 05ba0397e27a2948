"""Scalar and array def/use collection.

These helpers answer, for a statement or a statement list, which scalar
names are written, which are read, and which array references occur with
read/write classification.  They feed privatization, reduction
recognition, side-effect summaries and the forward-substitution pass.

Array accesses: ``A(subs)`` on the left of an assignment is a *write of
array A* plus *reads* of everything in the subscripts.  A whole-array
region write ``A(1:N) = e`` is a write of A.  An array name passed to a
CALL is treated by the caller of these helpers via side-effect summaries —
here it is reported in ``call_args``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from repro.fortran import ast
from repro.fortran.symbols import SymbolTable


@dataclass
class AccessSet:
    """Accumulated accesses for a statement region."""

    scalar_reads: Set[str] = field(default_factory=set)
    scalar_writes: Set[str] = field(default_factory=set)
    #: (array name, subscripts, is_write) in textual order
    array_accesses: List[Tuple[str, Tuple[ast.Expr, ...], bool]] = \
        field(default_factory=list)
    #: names passed as CALL arguments (may be read and/or written)
    call_args: Set[str] = field(default_factory=set)
    has_call: bool = False
    has_io: bool = False
    has_stop: bool = False
    has_goto: bool = False
    #: names accessed through a construct the dependence model cannot
    #: represent (CHARACTER substring references on scalars, assigned-GOTO
    #: label variables); loops touching them must stay serial
    unanalyzable: Set[str] = field(default_factory=set)
    #: region contains an Opaque (unlowered) statement or an ENTRY point —
    #: it may read or write anything
    has_opaque: bool = False


def _is_substring(e: ast.ArrayRef, table: SymbolTable) -> bool:
    """True for a parenthesized reference to a *declared* non-array name —
    after call resolution that can only be a CHARACTER substring."""
    v = table.declared(e.name)
    return v is not None and not v.is_array


def _expr_reads(e: ast.Expr, table: SymbolTable, acc: AccessSet) -> None:
    if isinstance(e, ast.Var):
        if table.is_array(e.name):
            # whole-array reference (argument positions); record as an
            # unsubscripted read
            acc.array_accesses.append((e.name.upper(), (), False))
        else:
            acc.scalar_reads.add(e.name.upper())
    elif isinstance(e, ast.ArrayRef):
        if _is_substring(e, table):
            # a parenthesized reference to a declared non-array name that
            # survived call resolution is a CHARACTER substring: model it
            # as a scalar read and flag the name unanalyzable (the
            # dependence tester has no model of sub-string overlap)
            acc.scalar_reads.add(e.name.upper())
            acc.unanalyzable.add(e.name.upper())
        else:
            acc.array_accesses.append((e.name.upper(), e.subs, False))
        for s in e.subs:
            _expr_reads(s, table, acc)
    elif isinstance(e, ast.FuncRef):
        for a in e.args:
            _expr_reads(a, table, acc)
    elif isinstance(e, ast.BinOp):
        _expr_reads(e.left, table, acc)
        _expr_reads(e.right, table, acc)
    elif isinstance(e, ast.UnOp):
        _expr_reads(e.operand, table, acc)
    elif isinstance(e, ast.RangeExpr):
        for part in (e.lo, e.hi, e.step):
            if part is not None:
                _expr_reads(part, table, acc)


def collect_accesses(body: Sequence[ast.Stmt],
                     table: SymbolTable) -> AccessSet:
    """Collect all accesses in ``body`` (recursing into nested blocks)."""
    acc = AccessSet()
    for s in ast.walk_stmts(body):
        _stmt_accesses(s, table, acc)
    return acc


def _stmt_accesses(s: ast.Stmt, table: SymbolTable, acc: AccessSet) -> None:
    if isinstance(s, ast.Assign):
        _expr_reads(s.value, table, acc)
        if isinstance(s.target, ast.Var):
            if table.is_array(s.target.name):
                acc.array_accesses.append((s.target.name.upper(), (), True))
            else:
                acc.scalar_writes.add(s.target.name.upper())
        elif _is_substring(s.target, table):
            # substring write: conservatively a scalar write of the whole
            # variable, and unanalyzable (partial update)
            acc.scalar_writes.add(s.target.name.upper())
            acc.unanalyzable.add(s.target.name.upper())
            for sub in s.target.subs:
                _expr_reads(sub, table, acc)
        else:
            acc.array_accesses.append(
                (s.target.name.upper(), s.target.subs, True))
            for sub in s.target.subs:
                _expr_reads(sub, table, acc)
    elif isinstance(s, ast.IfBlock):
        for cond, _ in s.arms:
            if cond is not None:
                _expr_reads(cond, table, acc)
    elif isinstance(s, ast.DoLoop):
        acc.scalar_writes.add(s.var.upper())
        _expr_reads(s.start, table, acc)
        _expr_reads(s.stop, table, acc)
        if s.step is not None:
            _expr_reads(s.step, table, acc)
    elif isinstance(s, ast.CallStmt):
        acc.has_call = True
        for a in s.args:
            if isinstance(a, ast.AltReturn):
                # the callee may RETURN n straight to a labelled statement
                # in this unit: unstructured control flow at the call site
                acc.has_goto = True
                continue
            _expr_reads(a, table, acc)
            root = _root_name(a)
            if root:
                acc.call_args.add(root)
    elif isinstance(s, ast.IoStmt):
        acc.has_io = True
        for item in s.items:
            if s.kind == "READ":
                # READ writes its item list
                if isinstance(item, ast.Var) and not table.is_array(item.name):
                    acc.scalar_writes.add(item.name.upper())
                elif isinstance(item, ast.ArrayRef):
                    acc.array_accesses.append(
                        (item.name.upper(), item.subs, True))
                    for sub in item.subs:
                        _expr_reads(sub, table, acc)
                else:
                    _expr_reads(item, table, acc)
            else:
                _expr_reads(item, table, acc)
    elif isinstance(s, ast.Stop):
        acc.has_stop = True
    elif isinstance(s, ast.Goto):
        acc.has_goto = True
    elif isinstance(s, ast.ComputedGoto):
        acc.has_goto = True
        _expr_reads(s.index, table, acc)
    elif isinstance(s, ast.AssignedGoto):
        acc.has_goto = True
        acc.scalar_reads.add(s.var.upper())
    elif isinstance(s, ast.LabelAssign):
        acc.scalar_writes.add(s.var.upper())
    elif isinstance(s, (ast.EntryStmt, ast.Opaque)):
        acc.has_opaque = True
    # Continue/Return/OmpParallelDo/TaggedBlock carry no direct accesses


def _root_name(e: ast.Expr) -> str:
    if isinstance(e, (ast.Var, ast.ArrayRef)):
        return e.name.upper()
    return ""
