"""Compiled closure backend: lower once, execute many.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` re-visits
every AST node on every execution.  This module compiles each program
unit once into a flat list of Python closures — one instruction per
statement, with jump targets pre-resolved so GOTO and DO dispatch is an
index bump instead of exception unwinding — and, where the subscript
analysis proves a rectangular loop nest affine, branch-free and
call-free, emits one NumPy gather/compute/scatter kernel instead of
per-iteration closures: for plain DO loops and, in program order and where
privatisation cannot be observed, for the loops of honoured directives.

The cost-accounting contract of the tree-walker is preserved *exactly*:

* every executed statement charges 1.0 and one step (with the same step
  limit), every visited expression node charges 0.5;
* all charges are multiples of 0.5 with magnitudes far below 2**52, so
  float sums are exact and order-independent — which lets the compiler
  fold the 0.5-per-node charges of a call-free ("strict") subtree into
  one constant without changing any observable cost: the folded total is
  bit-for-bit what the tree-walker accumulates, at every boundary where
  cost is observable (statement granularity, parallel-loop iteration
  deltas, and FORTRAN ``STOP``);
* expressions containing user calls or short-circuit operators keep
  per-node charging closures in tree-walker order, so a ``STOP`` (or a
  cost delta measured around a parallel iteration) sees the identical
  running total.

Because the recorded region tree holds the identical per-iteration
costs, and :func:`repro.runtime.machine.price` prices nothing else,
Figure 20 is bit-for-bit identical under either backend.  Compiled units
are cached process-wide per unit content hash (alongside the parse
cache's program hash), so repeated executions of the same program — the
differential tester's modes, the fuzz oracle — re-lower nothing.

The tree-walker remains the differential oracle: see
:func:`repro.runtime.difftest.backend_equivalence` and the fuzzer's
``backend-divergence`` property.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import time
from collections import Counter, OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FortranStop, InterpreterError
from repro.fortran import ast
from repro.fortran.intrinsics import is_intrinsic
from repro.fortran.symbols import build_symbol_table, expr_type
from repro.program import Program
from repro.runtime.interpreter import (ORDER_PERMUTED, ORDER_SEQUENTIAL,
                                       ExecutionResult, Interpreter,
                                       _GotoSignal, _ReturnSignal,
                                       collect_omp_sites)
from repro.runtime.intrinsics import call_intrinsic, power
from repro.runtime.values import ArrayView, ScalarRef

__all__ = ["CompiledInterpreter", "compile_cache_info",
           "clear_compile_cache"]


class _CrossGoto(Exception):
    """A GOTO that leaves a parallel-loop body for an enclosing region.

    ``levels`` counts the OmpParallelDo boundaries still to cross;
    ``cell`` holds the target pc in the region that owns the label.
    """

    def __init__(self, levels: int, cell: List[int]):
        self.levels = levels
        self.cell = cell


class _VectorBail(Exception):
    """Raised inside a vector kernel to abandon it and fall back to the
    scalar instruction path (which reproduces tree-walker behaviour
    exactly, including any error it would raise)."""


# ---------------------------------------------------------------------------
# template cache
# ---------------------------------------------------------------------------

_CACHE_LIMIT = 512
_TEMPLATE_CACHE: "OrderedDict[tuple, _UnitTemplate]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0}

_metrics = None


def _get_metrics():
    """Lazy metric handles (avoids import cycles at module load)."""
    global _metrics
    if _metrics is None:
        from repro.obs.metrics import counter, histogram
        _metrics = {
            "compile_seconds": histogram(
                "repro_runtime_compile_seconds",
                "Time spent lowering one program unit to closures"),
            "cache_total": counter(
                "repro_runtime_compile_cache_total",
                "Compiled-unit cache lookups by outcome"),
            "steps": counter(
                "repro_runtime_steps_total",
                "Statement steps executed by compiled runs"),
            "kernel_steps": counter(
                "repro_runtime_kernel_steps_total",
                "Statement steps committed by vector kernels"),
            "kernel_launches": counter(
                "repro_runtime_kernel_launches_total",
                "Vector kernel calls that committed"),
            "kernel_bails": counter(
                "repro_runtime_kernel_bails_total",
                "Vector kernel calls that refused (scalar replay ran)"),
        }
    return _metrics


def _unit_digest(unit: ast.ProgramUnit) -> bytes:
    return hashlib.blake2b(pickle.dumps(unit, protocol=4),
                           digest_size=16).digest()


def _template_for(unit: ast.ProgramUnit, honor: bool) -> "_UnitTemplate":
    key = (_unit_digest(unit), honor)
    tmpl = _TEMPLATE_CACHE.get(key)
    metrics = _get_metrics()
    if tmpl is not None:
        _TEMPLATE_CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        metrics["cache_total"].inc(outcome="hit")
        return tmpl
    _CACHE_STATS["misses"] += 1
    metrics["cache_total"].inc(outcome="miss")
    started = time.perf_counter()
    tmpl = _compile_unit(unit, honor)
    metrics["compile_seconds"].observe(time.perf_counter() - started)
    _TEMPLATE_CACHE[key] = tmpl
    while len(_TEMPLATE_CACHE) > _CACHE_LIMIT:
        _TEMPLATE_CACHE.popitem(last=False)
    return tmpl


def compile_cache_info() -> Dict[str, int]:
    return {"entries": len(_TEMPLATE_CACHE), **_CACHE_STATS}


def clear_compile_cache() -> None:
    _TEMPLATE_CACHE.clear()
    _CACHE_STATS["hits"] = _CACHE_STATS["misses"] = 0


# ---------------------------------------------------------------------------
# shared runtime helpers
# ---------------------------------------------------------------------------

def _stmt_charge(ex: Interpreter, amount: float) -> None:
    ex.cost += amount
    ex.steps += 1
    if ex.steps > ex.max_steps:
        raise InterpreterError("execution step limit exceeded")


def run_region(ex: Interpreter, region: tuple, fr) -> None:
    instrs, n_loops = region
    ls: Optional[list] = [None] * n_loops if n_loops else None
    pc = 0
    n = len(instrs)
    while pc < n:
        pc = instrs[pc](ex, fr, ls)


# ---------------------------------------------------------------------------
# expression compilation
#
# compile_expr returns (pure, charged, count):
#   * pure(ex, fr)    — evaluate without touching ex.cost; None when the
#                       subtree is non-strict (user calls, short-circuit
#                       operators, array regions, or lazily-shaped arrays
#                       whose dimension expressions contain calls);
#   * charged(ex, fr) — evaluate charging exactly what the tree-walker
#                       charges, in the same order;
#   * count           — tree-walker node visits on normal completion.
# ---------------------------------------------------------------------------

def _charged_of(pure, count: int):
    c = 0.5 * count

    def charged(ex, fr):
        ex.cost += c
        return pure(ex, fr)

    return charged


def _const_closure(v):
    def pure(ex, fr):
        return v
    return pure


def _dims_may_call(info) -> bool:
    """True when touching this array can trigger user calls during the
    lazy `_shape` evaluation — those accesses must stay non-strict so the
    calls land at the tree-walker's exact cost position."""
    for d in info.dims or ():
        for e in (d.lower, d.upper):
            if e is None:
                continue
            for node in ast.walk_expr(e):
                if isinstance(node, ast.FuncRef) \
                        and not is_intrinsic(node.name):
                    return True
    return False


class _Ctx:
    """Per-unit compilation context."""

    def __init__(self, unit: ast.ProgramUnit, honor: bool):
        self.unit = unit
        self.table = build_symbol_table(unit)
        self.params = {n for n, i in self.table.variables.items()
                       if i.parameter_value is not None}
        self.honor = honor
        #: scope chain for label resolution: (labels dict, omp depth)
        self.scopes: List[Tuple[Dict[int, List[int]], int]] = []
        self.omp_depth = 0
        #: directive identity -> its site, as the recorder names it
        self.omp_site = {id(s): (unit.name, i)
                         for i, s in enumerate(collect_omp_sites(unit.body))}

    def lazy_call_risk(self, name: str) -> bool:
        info = self.table.variables.get(name.upper())
        return info is not None and info.dims is not None \
            and _dims_may_call(info)


def _resolve(ex, fr, name):
    ref = fr.vars.get(name)
    if ref is None:
        ref = ex._local(name, fr)
    return ref


def compile_expr(e: ast.Expr, cc: _Ctx):
    if isinstance(e, ast.IntLit):
        return _const_closure(float(e.value)), None, 1
    if isinstance(e, ast.RealLit):
        return _const_closure(e.value), None, 1
    if isinstance(e, ast.LogicalLit):
        return _const_closure(1.0 if e.value else 0.0), None, 1
    if isinstance(e, ast.StringLit):
        return _const_closure(e.value), None, 1
    if isinstance(e, ast.Var):
        return _compile_var(e, cc)
    if isinstance(e, ast.ArrayRef):
        return _compile_arrayref(e, cc)
    if isinstance(e, ast.FuncRef):
        return _compile_funcref(e, cc)
    if isinstance(e, ast.UnOp):
        return _compile_unop(e, cc)
    if isinstance(e, ast.BinOp):
        return _compile_binop(e, cc)
    # tree-walker: charge 0.5, then "cannot evaluate <Type>"
    tname = type(e).__name__

    def pure(ex, fr):
        raise InterpreterError(f"cannot evaluate {tname}")
    return pure, None, 1


def _finish(pure, count):
    """Package a strict node: (pure, charged, count)."""
    return pure, None, count


def compiled_parts(triple):
    """(pure_or_None, charged, count) with charged materialized."""
    pure, charged, count = triple
    if charged is None:
        charged = _charged_of(pure, count)
    return pure, charged, count


def _plain_scalar_var(e, cc: _Ctx):
    """Upper-cased name of ``e`` when it is a plain Var whose read can be
    fused inline into an enclosing closure (not a PARAMETER, no lazy-call
    risk, not statically an array), else None.  Fused call sites must
    still fall back to the compiled sub-closure when the runtime binding
    is not a ScalarRef so error paths stay byte-identical."""
    if not isinstance(e, ast.Var):
        return None
    name = e.name.upper()
    if name in cc.params or cc.lazy_call_risk(name):
        return None
    info = cc.table.variables.get(name)
    if info is not None and info.dims is not None:
        return None
    return name


def _compile_var(e: ast.Var, cc: _Ctx):
    name = e.name.upper()
    if name in cc.params:
        def pure(ex, fr):
            return fr.parameters[name]
        return _finish(pure, 1)
    lazy_risk = cc.lazy_call_risk(name)
    info = cc.table.variables.get(name)

    if info is not None and info.dims is None:
        if info.typename == "INTEGER":
            def pure(ex, fr):
                ref = fr.vars.get(name)
                if ref is None:
                    ref = ex._local(name, fr)
                return float(int(ref.buffer[ref.offset]))
        else:
            def pure(ex, fr):
                ref = fr.vars.get(name)
                if ref is None:
                    ref = ex._local(name, fr)
                return float(ref.buffer[ref.offset])
    else:
        def pure(ex, fr):
            ref = fr.vars.get(name)
            if ref is None:
                ref = ex._local(name, fr)
            if ref.__class__ is ScalarRef:
                # inlined ScalarRef.get (hot path)
                if ref.typename == "INTEGER":
                    return float(int(ref.buffer[ref.offset]))
                return float(ref.buffer[ref.offset])
            if isinstance(ref, ArrayView):
                raise InterpreterError(
                    f"array {name} used where a scalar value is needed")
            return ref.get()
    if lazy_risk:
        # charge the node, then resolve (tree order: 0.5 first, then the
        # lazy _shape evaluation with its embedded calls)
        def charged(ex, fr):
            ex.cost += 0.5
            return pure(ex, fr)
        return None, charged, 1
    return _finish(pure, 1)


def _compile_arrayref(e: ast.ArrayRef, cc: _Ctx):
    name = e.name.upper()
    raw = e.name
    lazy_risk = cc.lazy_call_risk(name)
    if any(isinstance(x, ast.RangeExpr) for x in e.subs):
        # region read: charged-only path (generated code only)
        infos = []
        for sub in e.subs:
            if isinstance(sub, ast.RangeExpr):
                lo_c = None if sub.lo is None else \
                    compiled_parts(compile_expr(sub.lo, cc))[1]
                infos.append((True, lo_c))
            else:
                infos.append((False,
                              compiled_parts(compile_expr(sub, cc))[1]))

        def charged(ex, fr):
            ex.cost += 0.5
            view = _resolve(ex, fr, name)
            if isinstance(view, ScalarRef):
                raise InterpreterError(
                    f"{raw} subscripted but declared scalar")
            subs = []
            for k, (is_range, fn) in enumerate(infos):
                if is_range:
                    subs.append(view.lowers[k] if fn is None
                                else int(fn(ex, fr)))
                else:
                    subs.append(int(fn(ex, fr)))
            return view.get(subs)
        return None, charged, 1

    sub_triples = [compile_expr(x, cc) for x in e.subs]
    count = 1 + sum(t[2] for t in sub_triples)
    strict = (not lazy_risk) and all(t[1] is None for t in sub_triples)
    if strict:
        sub_pures = tuple(t[0] for t in sub_triples)
        if len(sub_pures) == 1:
            p0 = sub_pures[0]
            sname = _plain_scalar_var(e.subs[0], cc)

            def pure(ex, fr):
                view = fr.vars.get(name)
                if view is None:
                    view = ex._local(name, fr)
                if isinstance(view, ScalarRef):
                    raise InterpreterError(
                        f"{raw} subscripted but declared scalar")
                # fused subscript read: int() of the raw cell equals
                # int() of the Var closure's float for every typename
                if sname is not None:
                    sref = fr.vars.get(sname)
                    if sref is None:
                        sref = ex._local(sname, fr)
                    if sref.__class__ is ScalarRef:
                        sub = int(sref.buffer[sref.offset])
                    else:
                        sub = int(p0(ex, fr))
                else:
                    sub = int(p0(ex, fr))
                # inlined rank-1 flat_offset + get (hot path); strides[0]
                # is always 1 and offset/rel are non-negative, so only the
                # upper storage bound needs checking
                if len(view.extents) != 1:
                    return view.get((sub,))
                lower = view.lowers[0]
                rel = sub - lower
                ext = view.extents[0]
                if rel < 0 or (ext is not None and rel >= ext):
                    raise InterpreterError(
                        f"subscript {sub} out of bounds for dimension of "
                        f"{view.name} ({lower}:{lower + (ext or 0) - 1})")
                off = view.offset + rel
                buf = view.buffer
                if off >= len(buf):
                    raise InterpreterError(
                        f"reference beyond storage of {view.name}")
                if view.typename == "INTEGER":
                    return float(int(buf[off]))
                return float(buf[off])
        else:
            sub_specs = tuple((_plain_scalar_var(x, cc), p)
                              for x, p in zip(e.subs, sub_pures))

            def pure(ex, fr):
                view = fr.vars.get(name)
                if view is None:
                    view = ex._local(name, fr)
                if isinstance(view, ScalarRef):
                    raise InterpreterError(
                        f"{raw} subscripted but declared scalar")
                subs = []
                for sn, p in sub_specs:
                    if sn is not None:
                        sref = fr.vars.get(sn)
                        if sref is None:
                            sref = ex._local(sn, fr)
                        if sref.__class__ is ScalarRef:
                            subs.append(int(sref.buffer[sref.offset]))
                            continue
                    subs.append(int(p(ex, fr)))
                extents = view.extents
                if len(extents) != len(subs):
                    return view.get(subs)  # exact rank-mismatch error
                # inlined flat_offset + get (hot path)
                off = view.offset
                for sub, lower, ext, stride in zip(subs, view.lowers,
                                                   extents, view.strides):
                    rel = sub - lower
                    if rel < 0 or (ext is not None and rel >= ext):
                        raise InterpreterError(
                            f"subscript {sub} out of bounds for dimension "
                            f"of {view.name} "
                            f"({lower}:{lower + (ext or 0) - 1})")
                    off += rel * stride
                buf = view.buffer
                if off >= len(buf):
                    raise InterpreterError(
                        f"reference beyond storage of {view.name}")
                if view.typename == "INTEGER":
                    return float(int(buf[off]))
                return float(buf[off])
        return _finish(pure, count)

    sub_chargeds = tuple(compiled_parts(t)[1] for t in sub_triples)

    def charged(ex, fr):
        ex.cost += 0.5
        view = _resolve(ex, fr, name)
        if isinstance(view, ScalarRef):
            raise InterpreterError(f"{raw} subscripted but declared scalar")
        return view.get([int(c(ex, fr)) for c in sub_chargeds])
    return None, charged, count


def _compile_funcref(e: ast.FuncRef, cc: _Ctx):
    if is_intrinsic(e.name):
        iname = e.name
        arg_triples = [compile_expr(a, cc) for a in e.args]
        count = 1 + sum(t[2] for t in arg_triples)
        if all(t[1] is None for t in arg_triples):
            arg_pures = tuple(t[0] for t in arg_triples)

            def pure(ex, fr):
                return call_intrinsic(iname,
                                      [p(ex, fr) for p in arg_pures])
            return _finish(pure, count)
        arg_chargeds = tuple(compiled_parts(t)[1] for t in arg_triples)

        def charged(ex, fr):
            ex.cost += 0.5
            return call_intrinsic(iname,
                                  [c(ex, fr) for c in arg_chargeds])
        return None, charged, count

    fname, fargs = e.name, e.args

    def charged(ex, fr):
        ex.cost += 0.5
        result = ex._call(fname, fargs, fr)
        if result is None:
            raise InterpreterError(
                f"{fname} is a subroutine, not a function")
        return result
    return None, charged, 1


def _compile_unop(e: ast.UnOp, cc: _Ctx):
    op = e.op
    triple = compile_expr(e.operand, cc)
    pure, charged, count = triple
    total = count + 1
    if op == "-":
        fn = lambda v: -v               # noqa: E731
    elif op == "+":
        fn = lambda v: v                # noqa: E731
    elif op == ".NOT.":
        fn = lambda v: 0.0 if v != 0.0 else 1.0  # noqa: E731
    else:
        def fn(v):
            raise InterpreterError(f"unknown unary {op}")
    if charged is None:
        def p(ex, fr):
            return fn(pure(ex, fr))
        return _finish(p, total)

    def c(ex, fr):
        ex.cost += 0.5
        return fn(charged(ex, fr))
    return None, c, total


def _op_kernel(e: ast.BinOp, cc: _Ctx):
    """Value combiner for a non-short-circuit binary op, replicating the
    tree-walker's semantics (including the deferred INTEGER-division type
    query and its SemanticError timing)."""
    op = e.op
    if op == "+":
        return lambda a, b: a + b
    if op == "-":
        return lambda a, b: a - b
    if op == "*":
        return lambda a, b: a * b
    if op == "/":
        left, right = e.left, e.right
        try:
            known = (expr_type(left, cc.table) == "INTEGER"
                     and expr_type(right, cc.table) == "INTEGER")
        except Exception:
            known = None

        if known is None:
            def kern(a, b, fr):
                if b == 0:
                    raise InterpreterError("division by zero")
                is_int = (expr_type(left, fr.table) == "INTEGER"
                          and expr_type(right, fr.table) == "INTEGER")
                if is_int:
                    ia, ib = int(a), int(b)
                    q = abs(ia) // abs(ib)
                    return float(q if (ia < 0) == (ib < 0) else -q)
                return a / b
            kern.needs_frame = True
            return kern
        if known:
            def kern(a, b):
                if b == 0:
                    raise InterpreterError("division by zero")
                ia, ib = int(a), int(b)
                q = abs(ia) // abs(ib)
                return float(q if (ia < 0) == (ib < 0) else -q)
            return kern

        def kern(a, b):
            if b == 0:
                raise InterpreterError("division by zero")
            return a / b
        return kern
    if op == "**":
        return power
    if op == "==":
        return lambda a, b: 1.0 if a == b else 0.0
    if op == "/=":
        return lambda a, b: 1.0 if a != b else 0.0
    if op == "<":
        return lambda a, b: 1.0 if a < b else 0.0
    if op == "<=":
        return lambda a, b: 1.0 if a <= b else 0.0
    if op == ">":
        return lambda a, b: 1.0 if a > b else 0.0
    if op == ">=":
        return lambda a, b: 1.0 if a >= b else 0.0
    if op == ".EQV.":
        return lambda a, b: 1.0 if (a != 0.0) == (b != 0.0) else 0.0
    if op == ".NEQV.":
        return lambda a, b: 1.0 if (a != 0.0) != (b != 0.0) else 0.0
    if op == "//":
        return lambda a, b: str(a) + str(b)

    def kern(a, b):
        raise InterpreterError(f"unknown operator {op}")
    return kern


def _compile_binop(e: ast.BinOp, cc: _Ctx):
    op = e.op
    if op in (".AND.", ".OR."):
        lc = compiled_parts(compile_expr(e.left, cc))[1]
        rc = compiled_parts(compile_expr(e.right, cc))[1]
        if op == ".AND.":
            def charged(ex, fr):
                ex.cost += 0.5
                return 1.0 if (lc(ex, fr) != 0.0
                               and rc(ex, fr) != 0.0) else 0.0
        else:
            def charged(ex, fr):
                ex.cost += 0.5
                return 1.0 if (lc(ex, fr) != 0.0
                               or rc(ex, fr) != 0.0) else 0.0
        return None, charged, 1
    lt = compile_expr(e.left, cc)
    rt = compile_expr(e.right, cc)
    kern = _op_kernel(e, cc)
    needs_frame = getattr(kern, "needs_frame", False)
    total = 1 + lt[2] + rt[2]
    if lt[1] is None and rt[1] is None:
        lp, rp = lt[0], rt[0]
        if needs_frame:
            def pure(ex, fr):
                return kern(lp(ex, fr), rp(ex, fr), fr)
        else:
            lname = _plain_scalar_var(e.left, cc)
            rname = _plain_scalar_var(e.right, cc)
            # 1=+, 2=-, 3=* are folded inline (their kernels are plain
            # lambdas); anything else dispatches through kern
            opc = {"+": 1, "-": 2, "*": 3}.get(op, 0)

            def pure(ex, fr):
                # fused operand reads (float() keeps Python-float
                # arithmetic semantics, e.g. power()'s range check)
                if lname is not None:
                    ref = fr.vars.get(lname)
                    if ref is None:
                        ref = ex._local(lname, fr)
                    if ref.__class__ is ScalarRef:
                        if ref.typename == "INTEGER":
                            a = float(int(ref.buffer[ref.offset]))
                        else:
                            a = float(ref.buffer[ref.offset])
                    else:
                        a = lp(ex, fr)
                else:
                    a = lp(ex, fr)
                if rname is not None:
                    ref = fr.vars.get(rname)
                    if ref is None:
                        ref = ex._local(rname, fr)
                    if ref.__class__ is ScalarRef:
                        if ref.typename == "INTEGER":
                            b = float(int(ref.buffer[ref.offset]))
                        else:
                            b = float(ref.buffer[ref.offset])
                    else:
                        b = rp(ex, fr)
                else:
                    b = rp(ex, fr)
                if opc == 1:
                    return a + b
                if opc == 2:
                    return a - b
                if opc == 3:
                    return a * b
                return kern(a, b)
        return _finish(pure, total)
    lcg = compiled_parts(lt)[1]
    rcg = compiled_parts(rt)[1]
    if needs_frame:
        def charged(ex, fr):
            ex.cost += 0.5
            a = lcg(ex, fr)
            b = rcg(ex, fr)
            return kern(a, b, fr)
    else:
        def charged(ex, fr):
            ex.cost += 0.5
            a = lcg(ex, fr)
            b = rcg(ex, fr)
            return kern(a, b)
    return None, charged, total


# ---------------------------------------------------------------------------
# vectorization: affine, branch-free, call-free loop nests
#
# An eligible nest — bodies of assignments, CONTINUE and loops (plain or
# under an honoured directive) whose bounds nothing in the nest changes,
# array targets, subscripts affine in the DO variables in scope — lowers
# to one gather/compute/scatter kernel with one *axis* per loop; a lone
# inner loop is the nest of depth one.  A value at depth d has shape
# (trips_d, ..., trips_0), innermost axis first: what an enclosing body
# computed broadcasts into the bodies inside it, a loop's own axis is
# axis 0, and Fortran order is program order.  One rule admits operands:
# a subtree is *invariant* when it mentions neither a DO variable of the
# nest nor a scalar the nest assigns and compile_expr gives it a pure
# closure; that closure — the scalar path's own meaning of every
# operator, intrinsic and array element — evaluates it once per launch
# (_vec_once).  Only what varies with a loop needs a vector arm.  A
# scalar is read from the temporary of the statement that wrote it
# earlier in the same body, or in an enclosing body when no body in
# between assigns it; when a loop closes, what it wrote collapses to its
# last element along that loop's axis.  An array store must move on every
# enclosing axis by strides no two iterations can share (_vec_injective):
# that makes the deferred scatter, and a read under the same key,
# element-wise; a key names the loops its subscripts mention, so sibling
# loops over one variable never share a temporary.  The kernel is
# *speculative*: it computes everything into temporaries and validates
# every hazard (bounds at the corners of the rectangle, aliasing —
# hoisted reads included —, division by zero, non-integral subscripts,
# ...) before mutating any state but the inner DO variables' cells, which
# hoisted subscripts read and a refusal restores; any doubt, and any
# exception at all, refuses and the scalar instruction path replays the
# loop with exact tree-walker semantics, including whatever error the
# tree-walker would have raised, at the same program state.  The
# committed charge is trips * (what the tree-walker charges per
# iteration, inner headers and iterations included) — bit-exact, because
# all charges are multiples of 0.5 — and a committed nest records the
# region executions the walk would have (_vec_replay).
# ---------------------------------------------------------------------------

_VEC_MIN_TRIPS = 4
_VEC_ABS = {"ABS", "DABS"}
_VEC_SQRT = {"SQRT", "DSQRT"}
_VEC_MAX = {"MAX", "AMAX1", "DMAX1"}
_VEC_MIN = {"MIN", "AMIN1", "DMIN1"}
_TWO53 = float(2 ** 53)


class _VecLoop:
    """One loop of a nest being lowered — an axis of its kernel.  ``k``
    numbers the nest's loops in preorder (what a launch knows about loop
    ``k`` lives in the kernel context under that number), ``level`` is
    the nesting depth, ``site`` the honoured directive's site."""

    __slots__ = ("k", "level", "var", "site", "bounds", "plans", "fixed",
                 "n_stmts", "assigned", "written", "first", "sited")

    def __init__(self, k, level, var, site, assigned):
        self.k, self.level, self.var, self.site = k, level, var, site
        self.bounds = None          # start/stop/step evaluators (inner loops)
        self.plans: List[tuple] = []
        self.fixed = 0.0            # cost of one iteration, inner loops apart
        self.n_stmts = 0
        self.assigned = assigned    # scalars assigned anywhere inside
        self.written: set = set()   # ... by the statements lowered so far
        self.first: Dict[str, str] = {}   # scalar -> kind of its first write
        self.sited: List["_VecLoop"] = []  # inner loops with regions to record


class _KernelCtx:
    __slots__ = ("ex", "fr", "axes", "charge", "temps", "reads", "writes",
                 "pending", "saved")

    def __init__(self, ex, fr):
        self.ex = ex
        self.fr = fr
        #: loop number -> (trips, integer step, its arange shaped to
        #: broadcast on its axis, the DO variable's values likewise)
        self.axes: Dict[int, tuple] = {}
        #: loop number -> (cost, steps) one iteration of it charges
        self.charge: Dict[int, tuple] = {}
        self.temps: Dict[tuple, object] = {}
        self.reads: List[tuple] = []
        self.writes: List[tuple] = []
        self.pending: List[tuple] = []
        #: DO-variable cells as the launch found them, for a refusal
        self.saved: List[tuple] = []


def _vec_once(e: ast.Expr, scope: tuple, cc: _Ctx, vst: dict, banned):
    """Lower ``e`` for one evaluation per launch by the closure the
    scalar path owns, or None when it mentions a ``banned`` name or is
    not strict.  The evaluator first adds every cell ``e`` reads to
    ``kc.reads`` — scalars here, array elements through their own
    resolvers — so the overlap check is the one authority on whether the
    nest changes what was hoisted; it returns a Python float."""
    if any(isinstance(n, (ast.Var, ast.ArrayRef)) and n.name.upper() in banned
           for n in ast.walk_expr(e)):
        return None
    pure = compile_expr(e, cc)[0]
    if pure is None:
        return None
    own = {rec.var for rec in scope}
    cells, covered = [], set()
    for n in ast.walk_expr(e):
        if id(n) in covered:
            continue
        if isinstance(n, ast.ArrayRef):
            # the resolver records what the element's subscripts read
            covered.update(map(id, ast.walk_expr(n)))
            acc = _vec_access_factory(n, scope, cc, vst)
            if acc is None:
                return None
            cells.append(acc[0])
        elif isinstance(n, ast.Var) and n.name.upper() not in own \
                and n.name.upper() not in cc.params:
            cells.append(n.name.upper())
    vst["names"].update(c for c in cells if c.__class__ is str)

    def once(kc):
        for cell in cells:
            if cell.__class__ is str:
                ref = kc.fr.vars.get(cell)
                if not isinstance(ref, ScalarRef):
                    raise _VectorBail
                kc.reads.append((ref.buffer, ref.offset, ref.offset, None))
            else:
                view, _offsets, _strides, lo, hi = cell(kc)
                kc.reads.append((view.buffer, lo, hi, None))
        value = pure(kc.ex, kc.fr)
        if not isinstance(value, float):
            raise _VectorBail
        return value
    return once


def _vec_key(e: ast.ArrayRef, scope: tuple) -> tuple:
    """What makes two accesses the same element in the same iteration:
    the array, the subscripts' text and the loops whose variables they
    mention (a sibling ``DO J`` is another ``J``)."""
    mentioned = {n.name.upper() for sub in e.subs for n in ast.walk_expr(sub)
                 if isinstance(n, ast.Var)}
    return (e.name.upper(), repr(e.subs),
            tuple(rec.k for rec in scope if rec.var in mentioned))


def _vec_injective(strides) -> bool:
    """Do no two iterations share an offset?  ``strides`` is one
    (flat stride, trips) per enclosing loop; sorted by magnitude, each
    stride must clear everything the smaller ones span (mixed radix) —
    so a stride of zero, ``A(I)`` inside ``DO J``, and ``A(I+J)`` fail."""
    span = 0
    for stride, trips in sorted((abs(s), t) for s, t in strides):
        if stride <= span:
            return False
        span += stride * (trips - 1)
    return True


def _vec_last(value, ndim: int):
    """``value`` as the loop of depth ``ndim - 1`` leaves it: the last
    element along that loop's axis, when it varies along it at all."""
    return value[-1] if getattr(value, "ndim", 0) == ndim else value


def _vec_access_factory(e: ast.ArrayRef, scope: tuple, cc: _Ctx, vst: dict):
    """Compile an array access into (a runtime resolver returning
    (view, its offset at every iteration, flat stride per loop in scope,
    lo, hi) for the current frame; its key; its subscripts' affine
    forms), or None if the
    subscripts are not affine/simple.  All validation failures at runtime
    raise _VectorBail (never mutating state)."""
    from repro.analysis.affine import extract
    name = e.name.upper()
    if name in vst["scalar_targets"]:
        return None
    if any(isinstance(x, ast.RangeExpr) for x in e.subs):
        return None
    own = [rec.var for rec in scope]
    specs, forms = [], []
    for sub in e.subs:
        # affine in the DO variables in scope around atoms the nest
        # leaves alone: its value at the first iteration of every loop,
        # and one coefficient per loop
        form = extract(sub, own)
        if form is None:
            return None
        once = _vec_once(sub, scope, cc, vst, vst["variant"] - set(own))
        if once is None:
            return None
        specs.append((once, tuple(form.coeff(v) for v in own)))
        forms.append(form)
    vst["names"].add(name)
    numbers = tuple(rec.k for rec in scope)

    def resolve(kc):
        view = kc.fr.vars.get(name)
        if not isinstance(view, ArrayView):
            raise _VectorBail
        if len(specs) != view.rank:
            raise _VectorBail
        axes = [kc.axes[k] for k in numbers]
        off0 = view.offset
        strides = [0] * len(axes)
        for (once, coeffs), lower, ext, stride in zip(specs, view.lowers,
                                                      view.extents,
                                                      view.strides):
            base = once(kc)
            if base != int(base):
                raise _VectorBail
            # the dimension's extreme values lie at corners of the
            # iteration rectangle
            rel0 = rel_lo = rel_hi = int(base) - lower
            for i, c in enumerate(coeffs):
                if c:
                    trips, istep = axes[i][:2]
                    strides[i] += c * istep * stride
                    reach = (trips - 1) * c * istep
                    if reach < 0:
                        rel_lo += reach
                    else:
                        rel_hi += reach
            if rel_lo < 0 or (ext is not None and rel_hi >= ext):
                raise _VectorBail
            off0 += rel0 * stride
        lo = hi = offsets = off0
        for s, axis in zip(strides, axes):
            if s:
                offsets = offsets + s * axis[2]
                reach = (axis[0] - 1) * s
                if reach < 0:
                    lo += reach
                else:
                    hi += reach
        if lo < 0 or hi >= len(view.buffer):
            raise _VectorBail
        return view, offsets, strides, lo, hi

    return resolve, _vec_key(e, scope), forms


def _vec_value(e: ast.Expr, scope: tuple, cc: _Ctx, vst: dict):
    """Compile a loop-body value expression to vfn(kc) -> vector|float,
    or None when ineligible: an invariant subtree whole, through
    :func:`_vec_once`, and an arm below for each thing that varies."""
    once = _vec_once(e, scope, cc, vst, vst["variant"])
    if once is not None:
        return once
    if isinstance(e, ast.Var):
        name = e.name.upper()
        for rec in reversed(scope):
            if name == rec.var:
                k = rec.k
                return lambda kc: kc.axes[k][3]
            if name in rec.written:
                key = (name, None)
                return lambda kc: kc.temps[key]
            if name in rec.assigned:
                # read before this body's own write: a cross-iteration
                # recurrence the deferred-scatter kernel cannot express
                return None
        # a DO variable of the nest outside its loop
        return None
    if isinstance(e, ast.ArrayRef):
        acc = _vec_access_factory(e, scope, cc, vst)
        if acc is None:
            return None
        resolve, key, forms = acc
        vst["accesses"].append((False, key, forms))

        def vfn(kc):
            tmp = kc.temps.get(key)
            if tmp is not None:
                return tmp
            view, offsets, strides, lo, hi = resolve(kc)
            kc.reads.append((view.buffer, lo, hi, key))
            if not any(strides):
                v = float(view.buffer[offsets])
                if view.typename == "INTEGER":
                    v = float(int(v))
                return v
            g = view.buffer[offsets]
            if view.typename == "INTEGER":
                if not np.isfinite(g).all():
                    raise _VectorBail
                g = np.trunc(g) + 0.0
            return g
        return vfn
    if isinstance(e, ast.UnOp):
        if e.op not in ("-", "+"):
            return None
        child = _vec_value(e.operand, scope, cc, vst)
        if child is None:
            return None
        if e.op == "+":
            return child
        return lambda kc: -child(kc)
    if isinstance(e, ast.BinOp):
        if e.op not in ("+", "-", "*", "/"):
            return None
        integer = False
        if e.op == "/":
            try:
                integer = expr_type(e.left, cc.table) == "INTEGER" \
                    and expr_type(e.right, cc.table) == "INTEGER"
            except Exception:
                return None
        left = _vec_value(e.left, scope, cc, vst)
        right = _vec_value(e.right, scope, cc, vst)
        if left is None or right is None:
            return None
        op = e.op
        if op == "+":
            return lambda kc: left(kc) + right(kc)
        if op == "-":
            return lambda kc: left(kc) - right(kc)
        if op == "*":
            return lambda kc: left(kc) * right(kc)
        if integer:
            def vidiv(kc):
                # the scalar combiner's answer bit for bit: truncate the
                # operands, integer quotient of the magnitudes (exact
                # below 2**53), the sign, and never a negative zero
                a = left(kc)
                b = right(kc)
                if not (np.all(np.abs(a) < _TWO53)
                        and np.all(np.abs(b) < _TWO53)):
                    raise _VectorBail
                ia, ib = np.trunc(a), np.trunc(b)
                if np.any(ib == 0.0):
                    raise _VectorBail
                q = np.floor_divide(np.abs(ia), np.abs(ib))
                return np.where((ia < 0) == (ib < 0), q, -q) + 0.0
            return vidiv

        def vdiv(kc):
            a = left(kc)
            b = right(kc)
            if np.any(b == 0.0):
                raise _VectorBail
            return a / b
        return vdiv
    if isinstance(e, ast.FuncRef):
        fname = e.name.upper()
        args = [_vec_value(a, scope, cc, vst) for a in e.args]
        if any(a is None for a in args):
            return None
        if fname in _VEC_ABS and len(args) == 1:
            a0 = args[0]
            return lambda kc: np.abs(a0(kc))
        if fname in _VEC_SQRT and len(args) == 1:
            a0 = args[0]

            def vsqrt(kc):
                x = a0(kc)
                if np.any(x < 0.0):
                    raise _VectorBail
                return np.sqrt(x)
            return vsqrt
        if fname in _VEC_MAX and len(args) >= 2:
            def vmax(kc, fns=tuple(args)):
                m = fns[0](kc)
                for fn in fns[1:]:
                    b = fn(kc)
                    # ties and NaN keep the earlier operand — exactly
                    # Python's max(), which the tree-walker uses
                    m = np.where(b > m, b, m)
                return m
            return vmax
        if fname in _VEC_MIN and len(args) >= 2:
            def vmin(kc, fns=tuple(args)):
                m = fns[0](kc)
                for fn in fns[1:]:
                    b = fn(kc)
                    m = np.where(b < m, b, m)
                return m
            return vmin
        return None
    return None


def _match_reduction(e: ast.Expr, tname: str, occurs: int):
    """Match ``S = S + t`` / ``S = t + S`` / ``S = S - t`` / ``S = S * t``
    / ``S = t * S`` and return (accumulating ufunc, the t expression).
    ``+`` and ``*`` are bitwise-commutative for non-NaN doubles, so both
    operand orders map onto ufunc.accumulate's carry-op-element order."""
    if occurs != 1 or not isinstance(e, ast.BinOp):
        return None

    def is_t(x):
        return isinstance(x, ast.Var) and x.name.upper() == tname

    if e.op == "+":
        if is_t(e.left):
            return np.add, e.right
        if is_t(e.right):
            return np.add, e.left
    elif e.op == "-":
        if is_t(e.left):
            return np.subtract, e.right
    elif e.op == "*":
        if is_t(e.left):
            return np.multiply, e.right
        if is_t(e.right):
            return np.multiply, e.left
    return None


def _vec_nested(stmt: ast.Stmt, cc: _Ctx):
    """(loop, site, PRIVATE names) when ``stmt`` is a loop — a directive
    the run does not honour is its loop — else None."""
    if isinstance(stmt, ast.DoLoop):
        return stmt, None, ()
    if isinstance(stmt, ast.OmpParallelDo):
        if cc.honor:
            return stmt.loop, cc.omp_site[id(stmt)], stmt.private
        return stmt.loop, None, ()
    return None


def _vec_targets(body: Sequence[ast.Stmt]) -> List[str]:
    """The scalars the statements of ``body`` assign, loops included."""
    return [x.target.name.upper() for x in ast.walk_stmts(body)
            if isinstance(x, ast.Assign) and isinstance(x.target, ast.Var)]


def _vec_lower(s: ast.DoLoop, scope: tuple, cc: _Ctx, vst: dict, site,
               private) -> Optional[_VecLoop]:
    """Lower loop ``s`` as one more axis inside ``scope``, or None.

    ``private`` is its directive's list, which must be unobservable at
    this level: the loop's own variable, or a scalar whose first write in
    every iteration is not a reduction — each such scalar is written
    before it is read (anything else is refused here), and so are the DO
    variables of the loops inside."""
    var = s.var.upper()
    if var in cc.params or any(var == rec.var for rec in scope):
        return None
    rec = _VecLoop(vst["loops"], len(scope), var, site,
                   set(_vec_targets(s.body)))
    vst["loops"] += 1
    scope = scope + (rec,)
    rec.n_stmts = len(s.body)
    for stmt in s.body:
        if isinstance(stmt, ast.Continue):
            rec.fixed += 1.0
            continue
        nested = _vec_nested(stmt, cc)
        if nested is not None:
            loop, kid_site, kid_private = nested
            # bounds nothing in the nest changes: evaluated once per
            # launch, their reads joining the overlap check
            exprs = [loop.start, loop.stop] \
                + ([] if loop.step is None else [loop.step])
            bounds = [_vec_once(x, scope, cc, vst, vst["variant"])
                      for x in exprs]
            if None in bounds:
                return None
            kid = _vec_lower(loop, scope, cc, vst, kid_site, kid_private)
            if kid is None:
                return None
            kid.bounds = tuple(bounds) + (None,) * (3 - len(bounds))
            vst["names"].add(kid.var)
            rec.fixed += _compile_bounds(loop, cc)[0]  # all of it folds
            rec.plans.append(("loop", None, kid, None))
            rec.written |= kid.written
            rec.first.setdefault(kid.var, "sca")
            for name, kind in kid.first.items():
                rec.first.setdefault(name, kind)
            if kid.site is not None or kid.sited:
                rec.sited.append(kid)
            continue
        if not isinstance(stmt, ast.Assign):
            return None
        # 1.0 a statement and 0.5 a node the tree-walker visits —
        # compile_expr's own count of the value and of an array target's
        # subscripts
        rec.fixed += 1.0 + 0.5 * sum(
            compile_expr(x, cc)[2]
            for x in (stmt.value, *getattr(stmt.target, "subs", ())))
        if isinstance(stmt.target, ast.Var):
            t = stmt.target.name.upper()
            if t in vst["reduced"]:
                # a later write to a reduced scalar would invalidate the
                # accumulate's carry chain (next iteration reads *this*
                # statement's result, not the reduction's)
                return None
            vst["names"].add(t)
            occurs = sum(1 for n in ast.walk_expr(stmt.value)
                         if isinstance(n, ast.Var) and n.name.upper() == t)
            if occurs and t not in rec.written:
                # S = S op <t>: a sequential reduction.  ufunc.accumulate
                # performs the identical left-to-right float operations
                # (verified by the backend-equivalence suite), so the
                # final value and every prefix are bit-exact.  Carried
                # from the enclosing body's temporary (S = 0.0 there: one
                # accumulate per row, along this loop's axis), or from
                # memory across every enclosing iteration in program
                # order — then S may have no other assignment in the nest
                red = _match_reduction(stmt.value, t, occurs)
                row = len(scope) > 1 and t in scope[-2].written
                if red is None or not (row or vst["count"][t] == 1):
                    return None
                ufunc, rest = red
                rest_fn = _vec_value(rest, scope, cc, vst)
                if rest_fn is None:
                    return None
                rec.plans.append(("red", rest_fn, t, (ufunc, row)))
                vst["reduced"].add(t)
                rec.first.setdefault(t, "red")
            else:
                value_fn = _vec_value(stmt.value, scope, cc, vst)
                if value_fn is None:
                    return None
                rec.plans.append(("sca", value_fn, t, None))
                rec.first.setdefault(t, "sca")
            rec.written.add(t)
            continue
        value_fn = _vec_value(stmt.value, scope, cc, vst)
        acc = isinstance(stmt.target, ast.ArrayRef) \
            and _vec_access_factory(stmt.target, scope, cc, vst)
        if value_fn is None or not acc:
            return None
        resolve, key, forms = acc
        vst["accesses"].append((True, key, forms))
        rec.plans.append(("arr", value_fn, resolve, key))
    if not rec.plans or not all(n.upper() == rec.var
                                or rec.first.get(n.upper()) == "sca"
                                for n in private):
        # privatisation could be observed: a private array, a private
        # name the body only reads or never mentions (it may overlay a
        # cell the body reads) and a privatised reduction all see the
        # per-iteration zeroing and the last-iteration peel, and the
        # kernel does neither
        return None
    return rec


def _vec_carried(accesses) -> bool:
    """Is there a store and another access of the same array, under
    different keys, with identical coefficients on the DO variables and
    subscripts that differ only by integer constants smaller than
    ``_VEC_MIN_TRIPS`` in dimensions a DO variable moves?  Such a pair
    is a dependence carried by a loop that outruns the constant — the
    root always does — and the overlap check is certain to refuse it at
    every launch: the scalar path may as well own the loop."""
    def moving(form):
        return {v: c for v, c in form.coeffs.items() if c}

    for stored, skey, sforms in accesses:
        for _stored, okey, oforms in accesses:
            if stored and okey != skey and okey[0] == skey[0] \
                    and len(oforms) == len(sforms):
                deltas = [(f.remainder - g.remainder).constant_value()
                          if moving(f) == moving(g) else None
                          for f, g in zip(sforms, oforms)]
                if None not in deltas and any(deltas) and all(
                        d == 0 or moving(f) and abs(d) < _VEC_MIN_TRIPS
                        for d, f in zip(deltas, sforms)):
                    return True
    return False


def _vec_axis(kc: _KernelCtx, rec: _VecLoop, ref: ScalarRef, trips: int,
              start: float, step: float) -> None:
    """Open loop ``rec`` as an axis of the launch: its DO variable takes
    its first value now (hoisted subscripts read the cell) and its exit
    value at the commit."""
    if not (math.isfinite(start) and math.isfinite(step)) \
            or start != int(start) or step != int(step) \
            or abs(start) + abs(step) * trips >= _TWO53:
        raise _VectorBail
    kc.saved.append((ref.buffer, ref.offset, ref.buffer[ref.offset]))
    ref.set(start)
    kc.writes.append((ref.buffer, ref.offset, ref.offset, (rec.var,)))
    kc.pending.append((ref.buffer, ref.offset, start + trips * step))
    arange = np.arange(trips).reshape((trips,) + (1,) * rec.level)
    kc.axes[rec.k] = (trips, int(step), arange, start + step * arange)


def _vec_run(kc: _KernelCtx, rec: _VecLoop, shape: tuple):
    """Evaluate the body of ``rec`` for every iteration of ``shape`` —
    its own axis first — into temporaries and pending stores, and return
    the (cost, steps) one iteration of it charges."""
    frv = kc.fr.vars
    cost, steps = rec.fixed, rec.n_stmts
    for kind, value_fn, where, key in rec.plans:
        if kind == "loop":
            start, stop, step = (1.0 if fn is None else fn(kc)
                                 for fn in where.bounds)
            if step == 0:
                raise _VectorBail
            trips = int((stop - start + step) // step)
            ref = frv.get(where.var)
            if trips < 1 or not isinstance(ref, ScalarRef):
                raise _VectorBail
            _vec_axis(kc, where, ref, trips, start, step)
            inner_cost, inner_steps = _vec_run(kc, where, (trips,) + shape)
            cost += trips * inner_cost
            steps += trips * inner_steps
            for name in where.written:
                skey = (name, None)
                kc.temps[skey] = _vec_last(kc.temps[skey], len(shape) + 1)
            continue
        val = value_fn(kc)
        if kind == "arr":
            view, offsets, strides, lo, hi = where(kc)
            if not _vec_injective(zip(strides, shape[::-1])):
                raise _VectorBail
            if view.typename == "INTEGER":
                if not np.all(np.isfinite(val)):
                    raise _VectorBail
                val = np.trunc(val) + 0.0
            kc.writes.append((view.buffer, lo, hi, key))
            kc.pending.append((view.buffer, offsets, val))
            kc.temps[key] = val
            continue
        ref = frv.get(where)
        if not isinstance(ref, ScalarRef):
            raise _VectorBail
        skey = (where, None)
        if kind == "red":
            if ref.typename == "INTEGER":
                # per-iteration truncation feeds back into the
                # accumulation; leave it to the scalar path
                raise _VectorBail
            ufunc, row = key
            if row:
                carry = kc.temps[skey]
                tail = np.shape(val)
                tail = np.broadcast_shapes(
                    np.shape(carry),
                    tail[1:] if len(tail) == len(shape) else tail)
                arr = np.empty((shape[0] + 1,) + (1,) * (
                    len(shape) - 1 - len(tail)) + tail)
                arr[0] = carry
                arr[1:] = val
                val = ufunc.accumulate(arr, axis=0)[1:]
            else:
                kc.reads.append((ref.buffer, ref.offset, ref.offset, skey))
                arr = np.empty(1 + math.prod(shape))
                arr[0] = ref.get()
                arr[1:] = np.broadcast_to(val, shape).ravel(order="F")
                val = ufunc.accumulate(arr)[1:].reshape(shape, order="F")
        elif ref.typename == "INTEGER":
            if not np.all(np.isfinite(val)):
                raise _VectorBail
            val = np.trunc(val) + 0.0
        kc.writes.append((ref.buffer, ref.offset, ref.offset, skey))
        # loop-invariant values come as floats, NumPy scalars or
        # (np.where) 0-d arrays: no last element
        final = float(val.flat[-1]) if getattr(val, "ndim", 0) else float(val)
        kc.pending.append((ref.buffer, ref.offset, final))
        kc.temps[skey] = val
    kc.charge[rec.k] = (cost, steps)
    return cost, steps


def _vec_replay(ex: Interpreter, kc: _KernelCtx, rec: _VecLoop) -> None:
    """Record what walking one execution of loop ``rec`` of a committed
    nest would have: for a directive's loop a region of its
    per-iteration costs, and inside every iteration one execution of
    each directive within, in program order."""
    trips = kc.axes[rec.k][0]
    if rec.site is None:
        for _ in range(trips):
            for kid in rec.sited:
                _vec_replay(ex, kc, kid)
        return
    per_iter = kc.charge[rec.k][0]
    # with regions inside, the live list's length places each region in
    # its iteration
    costs = [] if rec.sited else [per_iter] * trips
    ex._regions.enter(rec.site, costs)
    while len(costs) < trips:
        for kid in rec.sited:
            _vec_replay(ex, kc, kid)
        costs.append(per_iter)
    ex._regions.leave(True)


def _try_vectorize(s: ast.DoLoop, cc: _Ctx, site=None, private=()):
    """Build a speculative vector kernel for the nest rooted at ``s`` —
    under the honoured directive ``site`` with its ``private`` list, when
    there is one — or return None."""
    targets = _vec_targets(s.body)
    dovars = {s.var.upper()} | {x.var.upper() for x in ast.walk_stmts(s.body)
                                if isinstance(x, ast.DoLoop)}
    if not dovars.isdisjoint(targets) or not cc.params.isdisjoint(targets):
        return None
    vst = {"names": set(), "scalar_targets": frozenset(targets),
           "variant": frozenset(targets) | dovars,
           "count": Counter(targets), "loops": 0,
           "reduced": set(), "accesses": []}
    root = _vec_lower(s, (), cc, vst, site, private)
    if root is None or _vec_carried(vst["accesses"]):
        return None
    all_names = tuple(sorted(vst["names"]))
    directives = site is not None or bool(root.sited)

    def kernel(ex, fr, var_ref, trips, start, step):
        if directives and ex.order != ORDER_SEQUENTIAL:
            # any other schedule runs a directive's loop iteration by
            # iteration: it is the oracle for wrongly parallel loops
            return False
        ex.kernel_bails += 1  # a call is a refusal until it commits
        frv = fr.vars
        for nm in all_names:
            if nm not in frv:
                return False
        kc = _KernelCtx(ex, fr)
        try:
            with np.errstate(all="ignore"):
                _vec_axis(kc, root, var_ref, trips, float(start),
                          float(step))
                per_iter, n_stmts = _vec_run(kc, root, (trips,))
            if ex.steps + trips * n_stmts > ex.max_steps:
                raise _VectorBail
            others = kc.reads + kc.writes
            for wbuf, wlo, whi, wkey in kc.writes:
                for obuf, olo, ohi, okey in others:
                    if okey != wkey and obuf is wbuf \
                            and olo <= whi and wlo <= ohi:
                        raise _VectorBail
        except Exception:  # noqa: BLE001 - whatever it was, nothing was stored
            for buf, off, old in reversed(kc.saved):
                buf[off] = old
            return False
        for buf, idx, val in kc.pending:
            buf[idx] = val
        ex.kernel_bails -= 1
        ex.kernel_launches += 1
        ex.cost += trips * per_iter
        ex.steps += trips * n_stmts
        ex.kernel_steps += trips * n_stmts
        if directives:
            _vec_replay(ex, kc, root)
        return True

    return kernel


# ---------------------------------------------------------------------------
# statement compilation
# ---------------------------------------------------------------------------

class _Region:
    """One flat instruction list.  The unit body is one region; every
    honored OmpParallelDo body is a sub-region (the directive instruction
    drives its iterations)."""

    __slots__ = ("instrs", "n_loops")

    def __init__(self):
        self.instrs: List[Callable] = []
        self.n_loops = 0

    def packed(self) -> tuple:
        return (self.instrs, self.n_loops)


class _UnitTemplate:
    __slots__ = ("region",)

    def __init__(self, region: tuple):
        self.region = region


def _seq_fold(triples):
    """Fold the longest strict prefix of an evaluation sequence into one
    upfront constant; later expressions keep their charging closures (a
    strict one folds at its own evaluation point)."""
    fold = 0.0
    evals = []
    prefix = True
    for triple in triples:
        pure, charged, count = triple
        if prefix and charged is None:
            fold += 0.5 * count
            evals.append(pure)
        else:
            prefix = False
            evals.append(compiled_parts(triple)[1])
    return fold, tuple(evals)


def _compile_unit(unit: ast.ProgramUnit, honor: bool) -> _UnitTemplate:
    cc = _Ctx(unit, honor)
    reg = _Region()
    _compile_block(cc, reg, unit.body)
    return _UnitTemplate(reg.packed())


def _compile_block(cc: _Ctx, reg: _Region, body: Sequence[ast.Stmt]) -> None:
    labels: Dict[int, List[int]] = {}
    for s in body:
        lab = getattr(s, "label", None)
        if lab:
            labels[lab] = [None]
    cc.scopes.append((labels, cc.omp_depth))
    for s in body:
        lab = getattr(s, "label", None)
        if lab:
            # duplicate labels: the last occurrence wins, like the
            # tree-walker's labels dict comprehension
            labels[lab][0] = len(reg.instrs)
        _emit_stmt(cc, reg, s)
    cc.scopes.pop()


def _emit_stmt(cc: _Ctx, reg: _Region, s: ast.Stmt) -> None:
    instrs = reg.instrs
    if isinstance(s, ast.Assign):
        _emit_assign(cc, reg, s)
    elif isinstance(s, ast.IfBlock):
        _emit_if(cc, reg, s)
    elif isinstance(s, ast.DoLoop):
        _emit_do(cc, reg, s, omp_charge=False)
    elif isinstance(s, ast.OmpParallelDo):
        if cc.honor:
            _emit_omp(cc, reg, s)
        else:
            # directives ignored: the plain serial loop, charged at the
            # directive statement exactly like _exec_omp -> _exec_do
            _emit_do(cc, reg, s.loop, omp_charge=False)
    elif isinstance(s, ast.CallStmt):
        cname, cargs = s.name, s.args
        nxt = len(instrs) + 1

        def instr(ex, fr, ls):
            _stmt_charge(ex, 1.0)
            ex._call(cname, cargs, fr)
            return nxt
        instrs.append(instr)
    elif isinstance(s, ast.Goto):
        _emit_goto(cc, reg, s)
    elif isinstance(s, ast.ComputedGoto):
        _emit_computed_goto(cc, reg, s)
    elif isinstance(s, ast.LabelAssign):
        _emit_label_assign(cc, reg, s)
    elif isinstance(s, ast.AssignedGoto):
        _emit_assigned_goto(cc, reg, s)
    elif isinstance(s, ast.Continue):
        nxt = len(instrs) + 1

        def instr(ex, fr, ls):
            _stmt_charge(ex, 1.0)
            return nxt
        instrs.append(instr)
    elif isinstance(s, ast.Return):
        def instr(ex, fr, ls):
            _stmt_charge(ex, 1.0)
            raise _ReturnSignal()
        instrs.append(instr)
    elif isinstance(s, ast.Stop):
        msg = s.message or ""

        def instr(ex, fr, ls):
            _stmt_charge(ex, 1.0)
            raise FortranStop(msg)
        instrs.append(instr)
    elif isinstance(s, ast.IoStmt):
        _emit_io(cc, reg, s)
    elif isinstance(s, ast.TaggedBlock):
        def instr(ex, fr, ls):
            _stmt_charge(ex, 1.0)
            raise InterpreterError(
                "annotation-inlined code is not executable (it is a "
                "summary, not an implementation); reverse-inline first")
        instrs.append(instr)
    else:
        tname = type(s).__name__

        def instr(ex, fr, ls):
            _stmt_charge(ex, 1.0)
            raise InterpreterError(f"cannot execute {tname}")
        instrs.append(instr)


def _emit_assign(cc: _Ctx, reg: _Region, s: ast.Assign) -> None:
    instrs = reg.instrs
    nxt = len(instrs) + 1
    vtriple = compile_expr(s.value, cc)
    vpure, vcharged, vcount = vtriple
    if vcharged is None:
        amt = 1.0 + 0.5 * vcount
        veval = vpure
    else:
        amt = 1.0
        veval = vcharged
    target = s.target
    if isinstance(target, ast.Var):
        tname = target.name.upper()

        def instr(ex, fr, ls):
            _stmt_charge(ex, amt)
            v = veval(ex, fr)
            ref = fr.vars.get(tname)
            if ref is None:
                ref = ex._local(tname, fr)
            if ref.__class__ is ScalarRef:
                # inlined ScalarRef.set (hot path); float(v) first, then
                # the INTEGER truncation — the tree-walker's error order
                value = float(v)
                if ref.typename == "INTEGER":
                    value = float(int(value))
                ref.buffer[ref.offset] = value
            elif isinstance(ref, ArrayView):
                ref.fill(float(v))
            else:
                ref.set(float(v))
            return nxt
        instrs.append(instr)
        return
    if isinstance(target, ast.ArrayRef):
        tname = target.name.upper()
        raw = target.name
        if any(isinstance(x, ast.RangeExpr) for x in target.subs):
            subs_ast = target.subs

            def instr(ex, fr, ls):
                _stmt_charge(ex, amt)
                v = veval(ex, fr)
                view = _resolve(ex, fr, tname)
                if isinstance(view, ScalarRef):
                    raise InterpreterError(
                        f"{raw} subscripted but declared scalar")
                ex._store_region(view, subs_ast, float(v), fr)
                return nxt
            instrs.append(instr)
            return
        # subscripts charge after the (possibly lazily shaped) view
        # resolves, preserving tree-walker charge order
        sub_triples = [compile_expr(x, cc) for x in target.subs]
        sub_evals = tuple(compiled_parts(t)[1] for t in sub_triples)
        if len(sub_evals) == 1:
            s0 = sub_evals[0]
            t0 = sub_triples[0]
            sname = _plain_scalar_var(target.subs[0], cc) \
                if t0[1] is None and t0[2] == 1 else None

            def instr(ex, fr, ls):
                _stmt_charge(ex, amt)
                v = veval(ex, fr)
                view = fr.vars.get(tname)
                if view is None:
                    view = ex._local(tname, fr)
                if isinstance(view, ScalarRef):
                    raise InterpreterError(
                        f"{raw} subscripted but declared scalar")
                if sname is not None:
                    # fused charged subscript: 0.5 for the Var node, then
                    # the raw cell read
                    ex.cost += 0.5
                    sref = fr.vars.get(sname)
                    if sref is None:
                        sref = ex._local(sname, fr)
                    if sref.__class__ is ScalarRef:
                        sub = int(sref.buffer[sref.offset])
                    else:
                        sub = int(t0[0](ex, fr))
                else:
                    sub = int(s0(ex, fr))
                if len(view.extents) != 1:
                    view.set((sub,), float(v))
                    return nxt
                # inlined rank-1 set (hot path); the tree-walker's order
                # is float(v) -> INTEGER truncation -> bounds checks
                value = float(v)
                if view.typename == "INTEGER":
                    value = float(int(value))
                lower = view.lowers[0]
                rel = sub - lower
                ext = view.extents[0]
                if rel < 0 or (ext is not None and rel >= ext):
                    raise InterpreterError(
                        f"subscript {sub} out of bounds for dimension of "
                        f"{view.name} ({lower}:{lower + (ext or 0) - 1})")
                off = view.offset + rel
                buf = view.buffer
                if off >= len(buf):
                    raise InterpreterError(
                        f"reference beyond storage of {view.name}")
                buf[off] = value
                return nxt
        else:
            def instr(ex, fr, ls):
                _stmt_charge(ex, amt)
                v = veval(ex, fr)
                view = fr.vars.get(tname)
                if view is None:
                    view = ex._local(tname, fr)
                if isinstance(view, ScalarRef):
                    raise InterpreterError(
                        f"{raw} subscripted but declared scalar")
                view.set([int(f(ex, fr)) for f in sub_evals], float(v))
                return nxt
        instrs.append(instr)
        return
    trepr = repr(target)

    def instr(ex, fr, ls):
        _stmt_charge(ex, amt)
        veval(ex, fr)
        raise InterpreterError(f"bad assignment target {trepr}")
    instrs.append(instr)


def _emit_if(cc: _Ctx, reg: _Region, s: ast.IfBlock) -> None:
    instrs = reg.instrs
    head_pc = len(instrs)
    instrs.append(None)  # patched below
    end_cell = [None]
    pairs = []
    arm_cells = []
    for cond, _arm in s.arms:
        ceval = None if cond is None else \
            compiled_parts(compile_expr(cond, cc))[1]
        cell = [None]
        arm_cells.append(cell)
        pairs.append((ceval, cell))
    pairs = tuple(pairs)

    def head(ex, fr, ls):
        _stmt_charge(ex, 1.0)
        for ceval, cell in pairs:
            if ceval is None or ceval(ex, fr) != 0.0:
                return cell[0]
        return end_cell[0]
    instrs[head_pc] = head
    last = len(s.arms) - 1
    for i, (cond, arm) in enumerate(s.arms):
        arm_cells[i][0] = len(instrs)
        _compile_block(cc, reg, arm)
        if i != last:
            def jump(ex, fr, ls, cell=end_cell):
                return cell[0]
            instrs.append(jump)
    end_cell[0] = len(instrs)


def _compile_bounds(loop: ast.DoLoop, cc: _Ctx):
    """A DO header, plain or under a directive: the statement's charge
    (the strict prefix of the bounds folded in) and the evaluators of
    start, stop and step (``None`` without one)."""
    bounds = [compile_expr(loop.start, cc), compile_expr(loop.stop, cc)]
    if loop.step is not None:
        bounds.append(compile_expr(loop.step, cc))
    fold, evals = _seq_fold(bounds)
    return (1.0 + fold, evals[0], evals[1],
            evals[2] if loop.step is not None else None)


def _emit_do(cc: _Ctx, reg: _Region, s: ast.DoLoop,
             omp_charge: bool) -> None:
    instrs = reg.instrs
    li = reg.n_loops
    reg.n_loops += 1
    amt, sev, tev, pev = _compile_bounds(s, cc)
    rawvar = s.var
    vname = s.var.upper()
    kernel = _try_vectorize(s, cc)
    init_pc = len(instrs)
    body_pc = init_pc + 1
    exit_cell = [None]

    def do_init(ex, fr, ls):
        _stmt_charge(ex, amt)
        start = sev(ex, fr)
        stop = tev(ex, fr)
        step = pev(ex, fr) if pev is not None else 1.0
        if step == 0:
            raise InterpreterError("DO step is zero")
        trips = max(0, int((stop - start + step) // step))
        var = fr.vars.get(vname)
        if var is None:
            var = ex._local(vname, fr)
        if not isinstance(var, ScalarRef):
            raise InterpreterError(f"DO variable {rawvar} is an array")
        if kernel is not None and trips >= _VEC_MIN_TRIPS \
                and kernel(ex, fr, var, trips, start, step):
            return exit_cell[0]
        if trips <= 0:
            var.set(start)
            return exit_cell[0]
        ls[li] = [trips - 1, start, step, var]
        var.set(start)
        return body_pc

    instrs.append(do_init)
    _compile_block(cc, reg, s.body)
    incr_pc = len(instrs)

    def do_incr(ex, fr, ls):
        st = ls[li]
        value = st[1] + st[2]
        st[1] = value
        var = st[3]
        # inlined ScalarRef.set (runs once per iteration)
        if var.typename == "INTEGER":
            var.buffer[var.offset] = float(int(value))
        else:
            var.buffer[var.offset] = value
        if st[0] > 0:
            st[0] -= 1
            return body_pc
        return incr_pc + 1
    instrs.append(do_incr)
    exit_cell[0] = len(instrs)


def _emit_goto(cc: _Ctx, reg: _Region, s: ast.Goto) -> None:
    instrs = reg.instrs
    target = s.target
    cell = None
    levels = 0
    for labels, depth in reversed(cc.scopes):
        if target in labels:
            cell = labels[target]
            levels = cc.omp_depth - depth
            break
    if cell is None:
        def instr(ex, fr, ls):
            _stmt_charge(ex, 1.0)
            raise _GotoSignal(target)
    elif levels == 0:
        def instr(ex, fr, ls, cell=cell):
            _stmt_charge(ex, 1.0)
            return cell[0]
    else:
        def instr(ex, fr, ls, cell=cell, levels=levels):
            _stmt_charge(ex, 1.0)
            raise _CrossGoto(levels, cell)
    instrs.append(instr)


def _resolve_label(cc: _Ctx, target: int):
    """(cell, levels) for a label visible from the current scope stack;
    (None, 0) when unresolved (handled at runtime via _GotoSignal)."""
    for labels, depth in reversed(cc.scopes):
        if target in labels:
            return labels[target], cc.omp_depth - depth
    return None, 0


def _emit_computed_goto(cc: _Ctx, reg: _Region, s: ast.ComputedGoto) -> None:
    instrs = reg.instrs
    nxt = len(instrs) + 1
    pure, charged, count = compile_expr(s.index, cc)
    if charged is None:
        amt = 1.0 + 0.5 * count
        ieval = pure
    else:
        amt = 1.0
        ieval = charged
    resolved = tuple(
        (target,) + _resolve_label(cc, target) for target in s.targets)
    n = len(resolved)

    def instr(ex, fr, ls):
        _stmt_charge(ex, amt)
        idx = int(ieval(ex, fr))
        # F77 semantics: an index outside 1..n falls through
        if not 1 <= idx <= n:
            return nxt
        target, cell, levels = resolved[idx - 1]
        if cell is None:
            raise _GotoSignal(target)
        if levels:
            raise _CrossGoto(levels, cell)
        return cell[0]
    instrs.append(instr)


def _emit_label_assign(cc: _Ctx, reg: _Region, s: ast.LabelAssign) -> None:
    instrs = reg.instrs
    nxt = len(instrs) + 1
    vname = s.var.upper()
    value = float(s.target_label)

    def instr(ex, fr, ls):
        _stmt_charge(ex, 1.0)
        ref = fr.vars.get(vname)
        if ref is None:
            ref = ex._local(vname, fr)
        if not isinstance(ref, ScalarRef):
            raise InterpreterError(f"ASSIGN target {s.var} is an array")
        ref.set(value)
        return nxt
    instrs.append(instr)


def _emit_assigned_goto(cc: _Ctx, reg: _Region, s: ast.AssignedGoto) -> None:
    instrs = reg.instrs
    if not s.targets:
        def instr(ex, fr, ls):
            _stmt_charge(ex, 1.0)
            raise InterpreterError(
                "assigned GOTO without a label list is not executable")
        instrs.append(instr)
        return
    pure, charged, count = compile_expr(ast.Var(s.var), cc)
    if charged is None:
        amt = 1.0 + 0.5 * count
        veval = pure
    else:
        amt = 1.0
        veval = charged
    targets = s.targets
    resolved = {
        target: _resolve_label(cc, target) for target in targets}

    def instr(ex, fr, ls):
        _stmt_charge(ex, amt)
        idx = int(veval(ex, fr))
        if idx not in resolved:
            raise InterpreterError(
                f"assigned GOTO label {idx} not in its label list")
        cell, levels = resolved[idx]
        if cell is None:
            raise _GotoSignal(idx)
        if levels:
            raise _CrossGoto(levels, cell)
        return cell[0]
    instrs.append(instr)


def _emit_io(cc: _Ctx, reg: _Region, s: ast.IoStmt) -> None:
    instrs = reg.instrs
    nxt = len(instrs) + 1
    if s.kind == "READ":
        items = s.items

        def instr(ex, fr, ls):
            _stmt_charge(ex, 1.0)
            for item in items:
                if not ex.inputs:
                    raise InterpreterError("READ beyond provided input")
                ex._store(item, ex.inputs.pop(0), fr)
            return nxt
        instrs.append(instr)
        return
    fold, evals = _seq_fold([compile_expr(item, cc) for item in s.items])
    amt = 1.0 + fold

    def instr(ex, fr, ls):
        _stmt_charge(ex, amt)
        parts = []
        for f in evals:
            v = f(ex, fr)
            parts.append(v if isinstance(v, str) else str(v))
        ex.output.append(" ".join(parts))
        return nxt
    instrs.append(instr)


def _emit_omp(cc: _Ctx, reg: _Region, s: ast.OmpParallelDo) -> None:
    instrs = reg.instrs
    nxt = len(instrs) + 1
    loop = s.loop
    amt, sev, tev, pev = _compile_bounds(loop, cc)
    vname = loop.var.upper()
    private_names = tuple(n.upper() for n in s.private)
    site = cc.omp_site[id(s)]
    kernel = _try_vectorize(loop, cc, site, private_names)
    sub = _Region()
    cc.omp_depth += 1
    _compile_block(cc, sub, loop.body)
    cc.omp_depth -= 1
    binstrs, bn_loops = sub.packed()
    n_bi = len(binstrs)

    def instr(ex, fr, ls):
        _stmt_charge(ex, amt)
        start = sev(ex, fr)
        stop = tev(ex, fr)
        step = pev(ex, fr) if pev is not None else 1.0
        if step == 0:
            raise InterpreterError("DO step is zero")
        trips = max(0, int((stop - start + step) // step))
        var = fr.vars.get(vname)
        if var is None:
            var = ex._local(vname, fr)
        # no ScalarRef check here: the tree-walker omits it for the
        # parallel path (an array DO variable fails in var.set instead)
        slices = ex._private_storage(private_names, fr)
        saved = [(buf, off, buf[off:off + size].copy())
                 for buf, off, size in slices]
        scalar_var = var.__class__ is ScalarRef
        if kernel is not None and trips >= _VEC_MIN_TRIPS and scalar_var \
                and kernel(ex, fr, var, trips, start, step):
            # in program order the kernel is the loop, and has recorded
            # this region and the regions inside it.  Any other schedule,
            # and a kernel that refused (having changed nothing), runs
            # iteration by iteration below
            return nxt
        order = range(trips)
        if ex.order == ORDER_PERMUTED and trips > 1:
            order = list(reversed(range(trips - 1))) + [trips - 1]
        iteration_costs: List[float] = []
        ic_append = iteration_costs.append
        last = trips - 1
        # inlined ScalarRef.set + run_region for the per-iteration path;
        # non-ScalarRef DO variables keep the generic set() (same error)
        if scalar_var:
            vbuf, voff = var.buffer, var.offset
            vint = var.typename == "INTEGER"
        else:
            vbuf = None
        ex._regions.enter(site, iteration_costs)
        completed = False
        try:
            for k in order:
                if k == last:
                    for buf, off, data in saved:
                        buf[off:off + len(data)] = data
                else:
                    for buf, off, size in slices:
                        buf[off:off + size] = 0.0
                v = start + k * step
                if vbuf is not None:
                    vbuf[voff] = float(int(v)) if vint else v
                else:
                    var.set(v)
                before = ex.cost
                bls = [None] * bn_loops if bn_loops else None
                pc = 0
                while pc < n_bi:
                    pc = binstrs[pc](ex, fr, bls)
                ic_append(ex.cost - before)
            var.set(start + trips * step)
            completed = True
        except _CrossGoto as cg:
            if cg.levels <= 1:
                return cg.cell[0]
            cg.levels -= 1
            raise
        finally:
            ex._regions.leave(completed)
        return nxt
    instrs.append(instr)


# ---------------------------------------------------------------------------
# the compiled interpreter
# ---------------------------------------------------------------------------

class CompiledInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` executing compiled closure templates.

    Frame construction, COMMON allocation, DATA statements, argument
    binding, calls and the cost model are the tree-walker's; only
    statement dispatch and expression evaluation are compiled
    (:meth:`_run_body`).  Templates are cached process-wide per unit
    content hash, so constructing many interpreters over the same
    program only lowers each unit once.
    """

    def __init__(self, program: Program, **kwargs):
        super().__init__(program, **kwargs)
        #: the share of ``steps`` that vector kernels committed, the
        #: kernel calls that committed and the calls that refused
        self.kernel_steps = self.kernel_launches = self.kernel_bails = 0
        self._templates: Dict[int, _UnitTemplate] = {}

    def _template(self, unit: ast.ProgramUnit) -> _UnitTemplate:
        tmpl = self._templates.get(id(unit))
        if tmpl is None:
            tmpl = _template_for(unit, self.honor)
            self._templates[id(unit)] = tmpl
        return tmpl

    def _run_body(self, unit: ast.ProgramUnit, frame) -> None:
        run_region(self, self._template(unit).region, frame)

    def run(self) -> ExecutionResult:
        try:
            return super().run()
        finally:
            metrics = _get_metrics()
            for name in ("steps", "kernel_steps", "kernel_launches",
                         "kernel_bails"):
                metrics[name].inc(getattr(self, name))
