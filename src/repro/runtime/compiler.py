"""Compiled closure backend: lower once, execute many.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` re-visits
every AST node on every execution.  This module compiles each program
unit once into a flat list of Python closures — one instruction per
statement, with jump targets pre-resolved so GOTO and DO dispatch is an
index bump instead of exception unwinding — and, where the subscript
analysis proves a rectangular loop nest affine, branch-free and
call-free, emits one NumPy gather/compute/scatter kernel instead of
per-iteration closures: for plain DO loops and, in program order and where
privatisation is modelled or cannot be observed, for the loops of honoured
directives.

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
* the closures lower only that strict core and the statements a run
  executes often — assignments to a scalar or an element, IF, DO,
  directive loops, CALL, GOTO, CONTINUE and RETURN.  Any other
  expression (user calls, short-circuit operators, array regions,
  lazily shaped arrays) runs on the tree-walker's own ``_eval``, and any
  other statement on its ``_exec_stmt``, so a ``STOP`` (or a cost delta
  measured around a parallel iteration) sees the identical running
  total, and each of those rules exists once.

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

from repro.errors import InterpreterError
from repro.fortran import ast
from repro.fortran.intrinsics import is_intrinsic
from repro.fortran.symbols import build_symbol_table, expr_type
from repro.program import Program
from repro.runtime.interpreter import (ORDER_SEQUENTIAL, ExecutionResult,
                                       Interpreter, _GotoSignal,
                                       _ReturnSignal, collect_omp_sites)
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
#: (unit digest, honour directives) -> the unit's region: its template
_TEMPLATE_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
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


def _template_for(unit: ast.ProgramUnit, honor: bool) -> tuple:
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
#                       operators, array regions, lazily-shaped arrays
#                       whose dimension expressions contain calls, or a
#                       division only the run can type);
#   * charged(ex, fr) — evaluate charging exactly what the tree-walker
#                       charges, in the same order: None for a strict
#                       subtree, and for a non-strict one the
#                       tree-walker's own evaluator (_walked);
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


_LITERALS = (ast.IntLit, ast.RealLit, ast.LogicalLit, ast.StringLit)


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
        #: lowering key -> (the node, kept alive so its id stays its
        #: own, and its compile_expr triple)
        self.lowered: Dict[object, tuple] = {}

    def lower(self, e: ast.Expr):
        """``compile_expr(e, self)`` once per node (variable: per name;
        literal: per value): it reads only the node, table and params."""
        cls = e.__class__
        key = e.name if cls is ast.Var else \
            (cls, repr(e.value)) if cls in _LITERALS else id(e)
        hit = self.lowered.get(key)
        if hit is None:
            hit = self.lowered[key] = (e, compile_expr(e, self))
        return hit[1]

    def lazy_call_risk(self, name: str) -> bool:
        info = self.table.variables.get(name.upper())
        return info is not None and info.dims is not None \
            and _dims_may_call(info)


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
    return _walked(e)


def _walked(e: ast.Expr):
    """A non-strict subtree, whole, on the tree-walker's ``_eval``: it
    charges what the walk charges in the order it charges, calls
    included.  The count is the subtree's node count — the walk's visits
    when nothing short-circuits, calls or spans a region, as in the one
    non-strict node a vector kernel takes, a lazily shaped array's
    element, whose statement the kernel charges by this count."""
    def charged(ex, fr):
        return ex._eval(e, fr)
    return None, charged, sum(1 for _ in ast.walk_expr(e))


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
    if cc.lazy_call_risk(name):
        return _walked(e)

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
    return _finish(pure, 1)


def _compile_arrayref(e: ast.ArrayRef, cc: _Ctx):
    name = e.name.upper()
    raw = e.name
    if cc.lazy_call_risk(name) \
            or any(isinstance(x, ast.RangeExpr) for x in e.subs):
        return _walked(e)
    sub_triples = [cc.lower(x) for x in e.subs]
    if any(t[1] is not None for t in sub_triples):
        return _walked(e)
    count = 1 + sum(t[2] for t in sub_triples)
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
    elif len(sub_pures) == 2:
        (n0, p0), (n1, p1) = ((_plain_scalar_var(x, cc), p)
                              for x, p in zip(e.subs, sub_pures))

        def pure(ex, fr):
            view = fr.vars.get(name)
            if view is None:
                view = ex._local(name, fr)
            if isinstance(view, ScalarRef):
                raise InterpreterError(
                    f"{raw} subscripted but declared scalar")
            # fused subscript reads, as on the rank-1 path
            sref = None
            if n0 is not None:
                sref = fr.vars.get(n0)
                if sref is None:
                    sref = ex._local(n0, fr)
            sub0 = int(sref.buffer[sref.offset]) \
                if sref.__class__ is ScalarRef else int(p0(ex, fr))
            sref = None
            if n1 is not None:
                sref = fr.vars.get(n1)
                if sref is None:
                    sref = ex._local(n1, fr)
            sub1 = int(sref.buffer[sref.offset]) \
                if sref.__class__ is ScalarRef else int(p1(ex, fr))
            off = _offset2(view, sub0, sub1)
            if off is None:
                return view.get((sub0, sub1))  # exact rank-mismatch error
            if view.typename == "INTEGER":
                return float(int(view.buffer[off]))
            return float(view.buffer[off])
    else:
        def pure(ex, fr):
            view = fr.vars.get(name)
            if view is None:
                view = ex._local(name, fr)
            if isinstance(view, ScalarRef):
                raise InterpreterError(
                    f"{raw} subscripted but declared scalar")
            return view.get([int(p(ex, fr)) for p in sub_pures])
    return _finish(pure, count)


def _offset2(view: ArrayView, sub0: int, sub1: int) -> Optional[int]:
    """``view.flat_offset((sub0, sub1))`` inlined for a rank-2 view —
    each dimension's bounds, then storage, with its messages — or None
    for a view of another rank."""
    extents = view.extents
    if len(extents) != 2:
        return None
    lowers = view.lowers
    lower, ext = lowers[0], extents[0]
    rel = sub0 - lower
    if rel < 0 or (ext is not None and rel >= ext):
        raise InterpreterError(
            f"subscript {sub0} out of bounds for dimension of "
            f"{view.name} ({lower}:{lower + (ext or 0) - 1})")
    off = view.offset + rel
    lower, ext = lowers[1], extents[1]
    rel = sub1 - lower
    if rel < 0 or (ext is not None and rel >= ext):
        raise InterpreterError(
            f"subscript {sub1} out of bounds for dimension of "
            f"{view.name} ({lower}:{lower + (ext or 0) - 1})")
    off += rel * view.strides[1]
    if off < 0 or off >= len(view.buffer):
        raise InterpreterError(f"reference beyond storage of {view.name}")
    return off


def _compile_funcref(e: ast.FuncRef, cc: _Ctx):
    if not is_intrinsic(e.name):
        return _walked(e)  # a user FUNCTION: the tree-walker's _call
    iname = e.name
    arg_triples = [cc.lower(a) for a in e.args]
    if any(t[1] is not None for t in arg_triples):
        return _walked(e)
    arg_pures = tuple(t[0] for t in arg_triples)

    def pure(ex, fr):
        return call_intrinsic(iname, [p(ex, fr) for p in arg_pures])
    return _finish(pure, 1 + sum(t[2] for t in arg_triples))


_UNARY = {"-": lambda v: -v,
          "+": lambda v: v,
          ".NOT.": lambda v: 0.0 if v != 0.0 else 1.0}


def _compile_unop(e: ast.UnOp, cc: _Ctx):
    fn = _UNARY.get(e.op)
    pure, charged, count = cc.lower(e.operand)
    if fn is None or charged is not None:
        return _walked(e)

    def p(ex, fr):
        return fn(pure(ex, fr))
    return _finish(p, count + 1)


def _op_kernel(e: ast.BinOp, cc: _Ctx):
    """Value combiner for a strict binary op, replicating the
    tree-walker's semantics — or None where the tree-walker's own
    evaluation is the only one: the short-circuit and unknown operators,
    and a division whose INTEGER typing only the run can tell."""
    op = e.op
    if op == "+":
        return lambda a, b: a + b
    if op == "-":
        return lambda a, b: a - b
    if op == "*":
        return lambda a, b: a * b
    if op == "/":
        try:
            known = (expr_type(e.left, cc.table) == "INTEGER"
                     and expr_type(e.right, cc.table) == "INTEGER")
        except Exception:
            return None
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
    return None


def _compile_binop(e: ast.BinOp, cc: _Ctx):
    op = e.op
    kern = _op_kernel(e, cc)
    if kern is None:
        return _walked(e)
    lt = cc.lower(e.left)
    rt = cc.lower(e.right)
    if lt[1] is not None or rt[1] is not None:
        return _walked(e)
    lp, rp = lt[0], rt[0]
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
    return _finish(pure, 1 + lt[2] + rt[2])


# ---------------------------------------------------------------------------
# vectorization: affine, branch-free, call-free loop nests
#
# An eligible nest — bodies of assignments, CONTINUE and loops (plain or
# under an honoured directive) whose bounds nothing in the nest changes,
# array targets, subscripts affine in the DO variables in scope — lowers
# to one gather/compute/scatter kernel with one *axis* per loop.  A value
# at depth d has shape (trips_d, ..., trips_0), innermost axis first, so
# what an enclosing body computed broadcasts into the bodies inside it.
# A subtree that mentions neither a DO variable of the nest nor a scalar
# it assigns, and has a pure closure, is evaluated once per launch by
# that closure (_vec_once); only what varies needs a vector arm.  A
# scalar is read from the temporary of the statement that wrote it; when
# a loop closes, what it wrote collapses to its last element.  An array
# store must be injective over the rectangle (_vec_injective), so the
# deferred scatter and a read under the same key are element-wise; a key
# names the loops its subscripts mention.  A subscript's base at the
# first iteration folds from its affine form when lowered (_vec_base).
# The kernel is *speculative*: it validates every hazard (bounds at the
# corners of the rectangle, aliasing — hoisted reads included —, division
# by zero, ...) before mutating any state but the inner DO variables'
# cells, which a refusal restores; any doubt, and any exception at all,
# refuses, and the scalar path replays the loop with exact tree-walker
# semantics.  A stepped launch (_vec_steps) stores as it goes and puts
# the saved ranges back when it refuses; the root's private arrays live
# in a copy per lane (_vec_lane) until the commit.  The committed charge
# is trips * (what the walk charges per iteration) — bit-exact, all
# charges being multiples of 0.5 — and a committed nest records the
# region executions the walk would have (_vec_replay).
# ---------------------------------------------------------------------------

_VEC_MIN_TRIPS = 4
_VEC_ABS = {"ABS", "DABS"}
_VEC_SQRT = {"SQRT", "DSQRT"}
_VEC_MAX = {"MAX", "AMAX1", "DMAX1"}
_VEC_MIN = {"MIN", "AMIN1", "DMIN1"}
_TWO53 = float(2 ** 53)
#: a launch's DO variables stay below this: a folded base is then exact
_VEC_AXIS_LIMIT = float(2 ** 32)
#: cells one private array's lane copies may hold in one launch (8 MiB)
_VEC_LANE_CELLS = 1 << 20


class _VecLoop:
    """One loop of a nest being lowered — an axis of its kernel.  ``k``
    numbers the nest's loops in preorder (what a launch knows about loop
    ``k`` lives in the kernel context under that number), ``level`` is
    the nesting depth, ``site`` the honoured directive's site."""

    __slots__ = ("k", "level", "var", "site", "bounds", "plans", "fixed",
                 "n_stmts", "assigned", "written", "first", "sited",
                 "valued")

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
        self.valued = False         # does an arm read the DO variable's values


class _KernelCtx:
    __slots__ = ("ex", "fr", "axes", "charge", "temps", "reads", "writes",
                 "pending", "saved", "once", "lanes", "rows", "step")

    def __init__(self, ex, fr):
        self.ex = ex
        self.fr = fr
        #: loop number -> (trips, integer step, its shared arange and DO
        #: values, when read, shaped for its axis, integer first value)
        self.axes: Dict[int, tuple] = {}
        #: loop number -> (cost, steps) one iteration of it charges
        self.charge: Dict[int, tuple] = {}
        self.temps: Dict[tuple, object] = {}
        self.reads: List[tuple] = []
        self.writes: List[tuple] = []
        self.pending: List[tuple] = []
        #: DO-variable cells as the launch found them, then a stepped
        #: launch's stored ranges before its first step: for a refusal
        self.saved: List[tuple] = []
        #: hoisted evaluator -> its value, once per launch
        self.once: Dict[Callable, float] = {}
        #: private array -> (its launch-local copy, one row per lane of
        #: the root axis, viewed with the array's shape; the row size)
        self.lanes: Dict[str, tuple] = {}
        #: a stepped launch: access key -> (view, its offsets over the
        #: rectangle, stepped axis first), and the step
        self.rows: Optional[Dict[tuple, tuple]] = None
        self.step = 0


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
    pure = cc.lower(e)[0]
    if pure is None:
        return None
    own = {rec.var for rec in scope}
    cells, skip = [], 0
    for n in ast.walk_expr(e):
        if skip:
            skip -= 1
            continue
        if isinstance(n, ast.ArrayRef):
            # the resolver records what the element's subscripts read, so
            # the walk skips them: by count, the preorder places them next
            # (not by identity: one node may occur twice in a tree)
            skip = sum(1 for _ in ast.walk_expr(n)) - 1
            acc = _vec_access_factory(n, scope, cc, vst)
            if acc is None:
                return None
            cells.append(acc[0])
        elif isinstance(n, ast.Var) and n.name.upper() not in own \
                and n.name.upper() not in cc.params:
            cells.append(n.name.upper())
    vst["names"].update(c for c in cells if c.__class__ is str)
    if e.__class__ in (ast.IntLit, ast.RealLit):
        value = pure(None, None)  # what every launch would compute
        return lambda kc: value

    def once(kc):
        value = kc.once.get(once)
        if value is not None:
            return value
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
        kc.once[once] = value
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


def _vec_base(e: ast.Expr, own) -> Optional[tuple]:
    """(a, b) bounding each value met evaluating subscript ``e`` by ``a + b
    * _VEC_AXIS_LIMIT < 2**53`` if it is integer literals and DO variables
    ``own`` under ``+ - *`` (a variable-free factor), else None."""
    if isinstance(e, ast.IntLit):
        return abs(e.value), 0
    if isinstance(e, ast.Var):
        return (0, 1) if e.name.upper() in own else None
    if isinstance(e, ast.UnOp) and e.op in ("+", "-"):
        return _vec_base(e.operand, own)
    if not (isinstance(e, ast.BinOp) and e.op in ("+", "-", "*")):
        return None
    left, right = _vec_base(e.left, own), _vec_base(e.right, own)
    if left is None or right is None or e.op == "*" and left[1] and right[1]:
        return None
    (la, lb), (ra, rb) = left, right
    a, b = (la * ra, la * rb + lb * ra) if e.op == "*" else (la + ra, lb + rb)
    return (a, b) if a + b * _VEC_AXIS_LIMIT < _TWO53 else None


def _vec_access_factory(e: ast.ArrayRef, scope: tuple, cc: _Ctx, vst: dict):
    """Compile an array access into (a runtime resolver returning (view,
    its offset at every iteration — an int moving on no axis —, flat
    stride per loop in scope, lo, hi) for the current frame; its key;
    its subscripts' affine forms), or None if they are not affine.  A
    base folds from the affine form and the axes' first values or, with
    atoms (``ID``, ``IX(7)``), evaluates once per launch.  Runtime
    failures raise _VectorBail (never mutating state)."""
    from repro.analysis.affine import extract
    name = e.name.upper()
    if name in vst["scalar_targets"] \
            or any(isinstance(x, ast.RangeExpr) for x in e.subs):
        return None
    own = [rec.var for rec in scope]
    numbers = tuple(rec.k for rec in scope)
    dims, forms = [], []
    for sub in e.subs:
        # affine in the DO variables in scope around atoms the nest
        # leaves alone: its constant or its evaluator, and (coefficient,
        # axis position, loop number) for each loop that moves it
        form = extract(sub, own)
        if form is None:
            return None
        once = None
        if _vec_base(sub, own) is None:
            once = _vec_once(sub, scope, cc, vst, vst["variant"] - set(own))
            if once is None:
                return None
        dims.append((form.remainder.constant_value(), once, tuple(
            (form.coeff(v), i, numbers[i]) for i, v in enumerate(own)
            if form.coeff(v))))
        forms.append(form)
    vst["names"].add(name)
    rank, n_axes = len(dims), len(numbers)
    lane = name in vst["private"]

    def resolve(kc):
        if lane:
            # the lane's own row of the copy: one more stride, on the root
            view, size = kc.lanes[name]
        else:
            view, size = kc.fr.vars.get(name), 0
        if not isinstance(view, ArrayView) or len(view.extents) != rank:
            raise _VectorBail
        axes = kc.axes
        off0 = view.offset
        strides = [size] + [0] * (n_axes - 1)
        for (const, once, pairs), lower, ext, stride in zip(
                dims, view.lowers, view.extents, view.strides):
            if once is None:
                rel_lo = const - lower
                for c, _i, k in pairs:
                    rel_lo += c * axes[k][4]
            else:
                base = once(kc)
                if base != int(base):
                    raise _VectorBail
                rel_lo = int(base) - lower
            off0 += rel_lo * stride
            # the dimension's extreme values lie at corners of the
            # iteration rectangle
            rel_hi = rel_lo
            for c, i, k in pairs:
                axis = axes[k]
                c *= axis[1]
                strides[i] += c * stride
                if c < 0:
                    rel_lo += (axis[0] - 1) * c
                else:
                    rel_hi += (axis[0] - 1) * c
            if rel_lo < 0 or (ext is not None and rel_hi >= ext):
                raise _VectorBail
        lo = hi = offsets = off0
        for s, k in zip(strides, numbers):
            if s:
                axis = axes[k]
                reach = (axis[0] - 1) * s
                if offsets.__class__ is int:
                    offsets = np.arange(off0, off0 + reach + s, s)
                    if axis[2].ndim > 1:
                        offsets = offsets.reshape(axis[2].shape)
                else:
                    offsets = offsets + s * axis[2]
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
                rec.valued = True
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
        # noted for the static checks and a stepped launch
        vst["accesses"].append((False, key, forms,
                                frozenset(r.k for r in scope), resolve))
        # a private array's copy takes its stores at once: no memo
        memo = e.name.upper() not in vst["private"]

        def vfn(kc):
            # a key's gather is memoised for the launch: a store under
            # the key replaces it with the stored temporary, and nothing
            # else changes what it reads before the commit.  A stepped
            # launch gathers its step's row of offsets resolved once
            if kc.rows is not None:
                view, rows = kc.rows[key]
                g = view.buffer[rows[kc.step]]
            else:
                tmp = kc.temps.get(key)
                if tmp is not None:
                    return tmp
                view, offsets, strides, lo, hi = resolve(kc)
                if memo:
                    kc.reads.append((view.buffer, lo, hi, key))
                if not any(strides):
                    g = float(view.buffer[offsets])
                    if view.typename == "INTEGER":
                        g = float(int(g))
                    kc.temps[key] = g
                    return g
                g = view.buffer[offsets]
            if view.typename == "INTEGER":
                if not np.isfinite(g).all():
                    raise _VectorBail
                g = np.trunc(g) + 0.0
            if memo and kc.rows is None:
                kc.temps[key] = g
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
    """Match a reduction of ``S`` and return (accumulating ufunc, its
    terms as (expression, negated) in fold order): ``S = S + t``, ``S =
    t + S``, ``S = S * t``, ``S = t * S``; a chain with ``S`` its leftmost
    leaf, ``S = ((S ± t1) ± t2) ...`` (``a - b`` is ``a + (-b)`` exactly
    in IEEE) or ``((S * t1) * t2) ...``, whose terms interleave per
    iteration; and ``S = MAX(S, t)``, ``MAX(t, S)`` and the ``MIN``
    forms.  ``+`` and ``*`` are bitwise-commutative for non-NaN doubles,
    so both operand orders map onto ufunc.accumulate's carry-op-element
    order."""
    if occurs != 1:
        return None

    def is_t(x):
        return isinstance(x, ast.Var) and x.name.upper() == tname

    if isinstance(e, ast.FuncRef) and len(e.args) == 2 \
            and (is_t(e.args[0]) or is_t(e.args[1])):
        name = e.name.upper()
        ufunc = np.maximum if name in _VEC_MAX else \
            np.minimum if name in _VEC_MIN else None
        other = e.args[1] if is_t(e.args[0]) else e.args[0]
        return None if ufunc is None else (ufunc, [(other, False)])
    if isinstance(e, ast.BinOp) and e.op in ("+", "*") and is_t(e.right):
        return (np.add if e.op == "+" else np.multiply), [(e.left, False)]
    ops = ("*",) if isinstance(e, ast.BinOp) and e.op == "*" else ("+", "-")
    terms = []
    while isinstance(e, ast.BinOp) and e.op in ops:
        terms.append((e.right, e.op == "-"))
        e = e.left
    if not terms or not is_t(e):
        return None
    return (np.multiply if ops == ("*",) else np.add), terms[::-1]


def _vec_terms(fns, negs):
    """The evaluator of a reduction's terms, each ``-t`` negated."""
    def terms(kc):
        vals = []
        for fn, neg in zip(fns, negs):
            v = fn(kc)
            if neg:
                if np.isnan(v).any():
                    # a - NaN keeps the NaN's sign, a + (-NaN) flips it
                    raise _VectorBail
                v = -v
            vals.append(v)
        return vals
    return terms


def _vec_fold(ufunc, arr, axis=0):
    """``ufunc.accumulate`` along ``axis``: the sequential fold, bit for
    bit.  Python's ``max``/``min`` keep the earlier operand on a tie and
    a NaN only when it comes first, where ``np.maximum`` takes the second
    zero of a tie and propagates NaN: without NaN and without zeros of
    both signs the two agree, and anything else refuses."""
    if ufunc is np.maximum or ufunc is np.minimum:
        zeros = np.signbit(arr[arr == 0.0])
        if np.isnan(arr).any() or zeros.any() and not zeros.all():
            raise _VectorBail
    return ufunc.accumulate(arr, axis=axis)


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
            cc.lower(x)[2]
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
                ufunc, terms = red
                fns = [_vec_value(x, scope, cc, vst) for x, _neg in terms]
                if None in fns:
                    return None
                rec.plans.append(("red", _vec_terms(
                    fns, [neg for _x, neg in terms]), t, (ufunc, row)))
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
        vst["accesses"].append((True, key, forms,
                                frozenset(r.k for r in scope), resolve))
        rec.plans.append(("arr", value_fn, resolve, key))
    root = len(scope) == 1
    if not rec.plans or not all(n.upper() == rec.var
                                or rec.first.get(n.upper()) == "sca"
                                or root and n.upper() in vst["private"]
                                for n in private):
        # privatisation could be observed: a private name the body only
        # reads or never mentions (it may overlay a cell the body reads)
        # and a privatised reduction see the per-iteration zeroing and
        # the last-iteration peel, and so does an array private to an
        # inner loop.  The root's private arrays get a copy per lane
        return None
    return rec


def _vec_carried(accesses, private) -> List[set]:
    """The pairs of a store and another access of the same array, under
    different keys, with identical coefficients on the DO variables and
    subscripts that differ only by integer constants smaller than
    ``_VEC_MIN_TRIPS`` in dimensions a DO variable moves: for each, the
    DO variables moving the dimensions where they differ.  Such a pair is
    a dependence carried by a loop that outruns the constant — the root
    always does —, and the overlap check is certain to refuse it at every
    launch; only a stepped launch (:func:`_vec_stepped`) can take it.  A
    private array is left out: each lane of the root has its own copy."""
    def moving(form):
        return {v: c for v, c in form.coeffs.items() if c}

    carriers = []
    for stored, skey, sforms, _loops, _resolve in accesses:
        if not stored or skey[0] in private:
            continue
        for _stored, okey, oforms, _loops, _resolve in accesses:
            if okey != skey and okey[0] == skey[0] \
                    and len(oforms) == len(sforms):
                deltas = [(f.remainder - g.remainder).constant_value()
                          if moving(f) == moving(g) else None
                          for f, g in zip(sforms, oforms)]
                if None not in deltas and any(deltas) and all(
                        d == 0 or moving(f) and abs(d) < _VEC_MIN_TRIPS
                        for d, f in zip(deltas, sforms)):
                    carriers.append({v for d, f in zip(deltas, sforms)
                                     if d for v in moving(f)})
    return carriers


def _vec_stepped(root: _VecLoop, carriers) -> Optional[_VecLoop]:
    """The loop a launch may step when only it carries dependences: the
    root's one loop, plain, its body array assignments, and the one DO
    variable moving every carried pair's differing dimensions — so the
    axes left to vectorise carry nothing.  None when there is none."""
    if len(root.plans) != 1 or root.plans[0][0] != "loop":
        return None
    kid = root.plans[0][2]
    if kid.site is not None or any(plan[0] != "arr" for plan in kid.plans) \
            or any(c != {kid.var} for c in carriers):
        return None
    return kid


def _vec_lanes_apart(accesses) -> bool:
    """Do the lanes of the root axis keep apart in every buffer a stepped
    launch stores to?  ``accesses`` is one (buffer, offsets with the root
    axis last, stored, lo, hi) per resolved access.  For a store and each
    access of its buffer whose range meets the store's, the lanes' spans
    over both — a lane's first to its last cell — must not meet: then no
    lane reads or writes what another stores, and running the lanes side
    by side is running them in turn."""
    spans = []
    for buf, rows, stored, lo, hi in accesses:
        flat = rows.reshape(-1, rows.shape[-1])
        spans.append((buf, stored, lo, hi, flat.min(axis=0), flat.max(axis=0)))
    for buf, stored, lo, hi, first, last in spans:
        for obuf, _stored, olo, ohi, ofirst, olast in spans:
            if stored and obuf is buf and olo <= hi and lo <= ohi:
                start = np.minimum(first, ofirst)
                end = np.maximum(last, olast)
                order = np.argsort(start, kind="stable")
                if np.any(start[order][1:] <= end[order][:-1]):
                    return False
    return True


#: (trips, level) -> the read-only arange every launch shares, shaped to
#: broadcast on that level's axis (up to 1 024 trips: 8 KiB each)
_ARANGES: Dict[tuple, np.ndarray] = {}


def _vec_arange(trips: int, level: int) -> np.ndarray:
    arange = _ARANGES.get((trips, level))
    if arange is None:
        arange = np.arange(trips)
        arange.flags.writeable = False
        arange = arange.reshape((trips,) + (1,) * level)
        if trips <= 1024:
            _ARANGES[trips, level] = arange
    return arange


def _vec_axis(kc: _KernelCtx, rec: _VecLoop, ref=None, trips=0,
              start=1.0, step=1.0) -> int:
    """Open loop ``rec`` as an axis of the launch — an inner loop from
    its bounds — and return its trips: its DO variable takes its first
    value now (hoisted subscripts read the cell) and its exit value at
    the commit."""
    if ref is None:
        start, stop, step = (1.0 if fn is None else fn(kc)
                             for fn in rec.bounds)
        if step == 0:
            raise _VectorBail
        trips = int((stop - start + step) // step)
        ref = kc.fr.vars.get(rec.var)
        if trips < 1 or not isinstance(ref, ScalarRef):
            raise _VectorBail
    if not (math.isfinite(start) and math.isfinite(step)) \
            or start != int(start) or step != int(step) \
            or abs(start) + abs(step) * trips >= _VEC_AXIS_LIMIT:
        raise _VectorBail
    kc.saved.append((ref.buffer, ref.offset, ref.buffer[ref.offset]))
    ref.set(start)
    kc.writes.append((ref.buffer, ref.offset, ref.offset, (rec.var,)))
    kc.pending.append((ref.buffer, ref.offset, start + trips * step))
    istart, istep = int(start), int(step)
    arange = _vec_arange(trips, rec.level)
    values = np.arange(istart, istart + istep * trips, istep, dtype=float
                       ).reshape(arange.shape) if rec.valued else None
    kc.axes[rec.k] = (trips, istep, arange, values, istart)
    return trips


def _vec_run(kc: _KernelCtx, rec: _VecLoop, shape: tuple):
    """Evaluate the body of ``rec`` for every iteration of ``shape`` —
    its own axis first — into temporaries and pending stores, and return
    the (cost, steps) one iteration of it charges."""
    cost, steps = rec.fixed, rec.n_stmts
    for kind, value_fn, where, key in rec.plans:
        if kind == "loop":
            trips = _vec_axis(kc, where)
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
            if (len(strides) > 1 or not strides[0]) \
                    and not _vec_injective(zip(strides, shape[::-1])):
                raise _VectorBail
            if view.typename == "INTEGER":
                if not np.all(np.isfinite(val)):
                    raise _VectorBail
                val = np.trunc(val) + 0.0
            if key[0] in kc.lanes:
                # a private array's copy: stored now, in plan order, for
                # what later statements and loops read
                view.buffer[offsets] = val
                continue
            kc.writes.append((view.buffer, lo, hi, key))
            kc.pending.append((view.buffer, offsets, val))
            kc.temps[key] = val
            continue
        ref = kc.fr.vars.get(where)
        if not isinstance(ref, ScalarRef):
            raise _VectorBail
        skey = (where, None)
        if kind == "red":
            if ref.typename == "INTEGER":
                # per-iteration truncation feeds back into the
                # accumulation; leave it to the scalar path
                raise _VectorBail
            # the terms of one iteration are consecutive in the fold
            ufunc, row = key
            m = len(val)
            if row:
                carry = kc.temps[skey]
                tail = np.broadcast_shapes(np.shape(carry), *(
                    np.shape(v)[1:] if np.ndim(v) == len(shape)
                    else np.shape(v) for v in val))
                arr = np.empty((shape[0] * m + 1,) + (1,) * (
                    len(shape) - 1 - len(tail)) + tail)
                arr[0] = carry
                for j, v in enumerate(val):
                    arr[1 + j::m] = v
                val = _vec_fold(ufunc, arr)[m::m]
            else:
                kc.reads.append((ref.buffer, ref.offset, ref.offset, skey))
                arr = np.empty(1 + math.prod(shape) * m)
                arr[0] = ref.get()
                for j, v in enumerate(val):
                    arr[1 + j::m] = np.broadcast_to(v, shape).ravel(order="F")
                val = _vec_fold(ufunc, arr)[m::m].reshape(shape, order="F")
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


def _vec_lane(kc: _KernelCtx, name: str, trips: int) -> None:
    """Give the root's private array ``name`` a copy with one row per
    lane: every row zero but the last, which starts from the storage —
    the walk's zeroing and last-iteration peel — and which the commit
    writes back.  The storage joins the overlap check under a key of its
    own, so any other name reaching it refuses."""
    view = kc.fr.vars.get(name)
    if not isinstance(view, ArrayView) or None in view.extents:
        raise _VectorBail
    size, off = view.size(), view.offset
    if off + size > len(view.buffer) or trips * size > _VEC_LANE_CELLS:
        raise _VectorBail
    rows = np.zeros((trips, size))
    rows[-1] = view.buffer[off:off + size]
    kc.lanes[name] = (ArrayView(rows.reshape(-1), 0, view.lowers,
                                view.extents, view.typename, view.name), size)
    kc.writes.append((view.buffer, off, off + size - 1, (name,)))
    kc.pending.append((view.buffer, slice(off, off + size), rows[-1]))


def _vec_steps(kc: _KernelCtx, root: _VecLoop, kid: _VecLoop, shape: tuple,
               accesses) -> tuple:
    """A stepped launch: resolve every access once over the rectangle
    (bounds at its corners), check that the root's lanes keep apart, save
    the stored ranges after the DO variables' cells, then step loop
    ``kid`` in order — each step evaluates its body for every lane at
    once and stores each statement before the next one reads, so each
    lane runs its own statements in their serial order.  Returns the
    (cost, steps) of one root iteration."""
    trips = _vec_axis(kc, kid)
    rows, resolved = {}, {}
    for stored, key, resolve in accesses:
        if (key, stored) in resolved:
            continue
        view, offsets, _strides, lo, hi = resolve(kc)
        rows[key] = view, np.broadcast_to(offsets, (trips,) + shape)
        resolved[key, stored] = (view.buffer, rows[key][1], stored, lo, hi)
        if stored:
            kc.writes.append((view.buffer, lo, hi, key))
            kc.saved.append((view.buffer, lo, view.buffer[lo:hi + 1].copy()))
        else:
            kc.reads.append((view.buffer, lo, hi, key))
    if not _vec_lanes_apart(resolved.values()):
        raise _VectorBail
    kc.rows = rows
    axis = kc.axes[kid.k]
    for s in range(trips):
        kc.step = s
        kc.axes[kid.k] = axis[:3] + (float(axis[4] + s * axis[1]),) \
            + axis[4:]
        for _kind, value_fn, _resolve, key in kid.plans:
            val = value_fn(kc)
            view, at = rows[key]
            if view.typename == "INTEGER":
                if not np.all(np.isfinite(val)):
                    raise _VectorBail
                val = np.trunc(val) + 0.0
            view.buffer[at[s]] = val
    kc.charge[kid.k] = (kid.fixed, kid.n_stmts)
    kc.charge[root.k] = charge = (root.fixed + trips * kid.fixed,
                                  root.n_stmts + trips * kid.n_stmts)
    return charge


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
    if not rec.sited:
        ex._regions.uniform(rec.site, per_iter, trips)
        return
    # the live list's length places each region inside in its iteration
    costs = []
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
    lanes = tuple(n for n in private if n not in targets and n not in dovars
                  and getattr(cc.table.variables.get(n), "dims", None)
                  is not None)
    vst = {"names": set(lanes), "scalar_targets": frozenset(targets),
           "variant": frozenset(targets) | dovars | set(lanes),
           "count": Counter(targets), "loops": 0, "private": lanes,
           "reduced": set(), "accesses": []}
    root = _vec_lower(s, (), cc, vst, site, private)
    if root is None:
        return None
    carriers = _vec_carried(vst["accesses"], lanes)
    stepped = _vec_stepped(root, carriers) if carriers and not lanes else None
    if carriers and stepped is None:
        return None
    for stored, key, _forms, loops, _resolve in vst["accesses"]:
        for _other, okey, _forms, oloops, _resolve in vst["accesses"]:
            if stored and key[0] in lanes and okey[0] == key[0] \
                    and okey != key and len(loops & oloops) > 1:
                # a private copy takes its stores at once: another key in
                # a loop they share, the root apart, could see a later
                # iteration's store
                return None
    # a stepped launch resolves every access up front; no other keeps them
    accesses = [(stored, key, resolve) for stored, key, _forms, _loops,
                resolve in vst["accesses"]] if stepped else ()
    all_names = frozenset(vst["names"])
    directives = site is not None or bool(root.sited)

    def kernel(ex, fr, var_ref, trips, start, step):
        if directives and ex.order != ORDER_SEQUENTIAL:
            # any other schedule runs a directive's loop iteration by
            # iteration: it is the oracle for wrongly parallel loops
            return False
        ex.kernel_bails += 1  # a call is a refusal until it commits
        if not all_names <= fr.vars.keys():
            return False
        kc = _KernelCtx(ex, fr)
        try:
            _vec_axis(kc, root, var_ref, trips, float(start), float(step))
            for name in lanes:
                _vec_lane(kc, name, trips)
            if stepped:
                per_iter, n_stmts = _vec_steps(kc, root, stepped, (trips,),
                                               accesses)
            else:
                per_iter, n_stmts = _vec_run(kc, root, (trips,))
            if ex.steps + trips * n_stmts > ex.max_steps:
                raise _VectorBail
            others = kc.reads + kc.writes
            for wbuf, wlo, whi, wkey in kc.writes:
                for obuf, olo, ohi, okey in others:
                    if okey != wkey and obuf is wbuf \
                            and olo <= whi and wlo <= ohi \
                            and not (stepped and len(wkey) == 3
                                     and okey is not None and len(okey) == 3):
                        # (a stepped launch's own accesses are the lane
                        # check's, which they passed)
                        raise _VectorBail
        except Exception:  # noqa: BLE001 - whatever it was, nothing was stored
            # the stored ranges were saved after the DO variables' cells
            for buf, off, old in reversed(kc.saved):
                buf[off:off + np.size(old)] = old
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


def _kernel_slot(s: ast.DoLoop, cc: _Ctx, site=None, private=()) -> list:
    """[the kernel of the nest at ``s``], lowered by _try_vectorize when
    a run first offers it enough trips; a nest without one refuses."""
    def first(*args):
        slot[0] = _try_vectorize(s, cc, site, private) or (lambda *_: False)
        return slot[0](*args)
    slot = [first]
    return slot


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


def _compile_unit(unit: ast.ProgramUnit, honor: bool) -> tuple:
    cc = _Ctx(unit, honor)
    reg = _Region()
    _compile_block(cc, reg, unit.body)
    return reg.packed()


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
    if isinstance(s, ast.Assign) and _lowered_target(s.target):
        _emit_assign(cc, reg, s)
    elif isinstance(s, ast.IfBlock):
        _emit_if(cc, reg, s)
    elif isinstance(s, ast.DoLoop):
        _emit_do(cc, reg, s)
    elif isinstance(s, ast.OmpParallelDo):
        if cc.honor:
            _emit_omp(cc, reg, s)
        else:
            # directives ignored: the plain serial loop, charged at the
            # directive statement exactly like _exec_omp -> _exec_do
            _emit_do(cc, reg, s.loop)
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
    else:
        _emit_walked(cc, reg, s)


def _lowered_target(target: ast.Expr) -> bool:
    """Does ``_emit_assign`` lower a store to ``target``?  A scalar or
    an element does; a region or anything else is walked."""
    return isinstance(target, ast.Var) or isinstance(target, ast.ArrayRef) \
        and not any(isinstance(x, ast.RangeExpr) for x in target.subs)


def _emit_walked(cc: _Ctx, reg: _Region, s: ast.Stmt) -> None:
    """A statement the closures leave to the tree-walker, whose
    ``_exec_stmt`` runs it and charges it.  A GOTO it raises to one of
    its labels jumps as a compiled one would: here, or out of the
    directive bodies in between; a label no enclosing block holds goes
    on up to the activation's error."""
    nxt = len(reg.instrs) + 1
    labels = s.targets \
        if isinstance(s, (ast.ComputedGoto, ast.AssignedGoto)) else ()
    jumps = {label: _resolve_label(cc, label) for label in labels}

    def instr(ex, fr, ls):
        try:
            ex._exec_stmt(s, fr)
        except _GotoSignal as g:
            cell, levels = jumps.get(g.label, (None, 0))
            if cell is None:
                raise
            if levels:
                raise _CrossGoto(levels, cell) from None
            return cell[0]
        return nxt
    reg.instrs.append(instr)


def _emit_assign(cc: _Ctx, reg: _Region, s: ast.Assign) -> None:
    instrs = reg.instrs
    nxt = len(instrs) + 1
    vtriple = cc.lower(s.value)
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
    tname = target.name.upper()
    raw = target.name
    # subscripts charge after the (possibly lazily shaped) view
    # resolves, preserving tree-walker charge order
    sub_triples = [cc.lower(x) for x in target.subs]
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
    elif len(sub_evals) == 2:
        s0, s1 = sub_evals

        def instr(ex, fr, ls):
            _stmt_charge(ex, amt)
            v = veval(ex, fr)
            view = fr.vars.get(tname)
            if view is None:
                view = ex._local(tname, fr)
            if isinstance(view, ScalarRef):
                raise InterpreterError(
                    f"{raw} subscripted but declared scalar")
            sub0 = int(s0(ex, fr))
            sub1 = int(s1(ex, fr))
            # inlined rank-2 set: float(v), INTEGER truncation, then
            # the bounds of each dimension and the storage
            value = float(v)
            if view.typename == "INTEGER":
                value = float(int(value))
            off = _offset2(view, sub0, sub1)
            if off is None:
                view.set((sub0, sub1), value)  # exact rank-mismatch error
            else:
                view.buffer[off] = value
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


def _emit_if(cc: _Ctx, reg: _Region, s: ast.IfBlock) -> None:
    instrs = reg.instrs
    head_pc = len(instrs)
    instrs.append(None)  # patched below
    end_cell = [None]
    pairs = []
    arm_cells = []
    for cond, _arm in s.arms:
        ceval = None if cond is None else \
            compiled_parts(cc.lower(cond))[1]
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
    bounds = [cc.lower(loop.start), cc.lower(loop.stop)]
    if loop.step is not None:
        bounds.append(cc.lower(loop.step))
    fold, evals = _seq_fold(bounds)
    return (1.0 + fold, evals[0], evals[1],
            evals[2] if loop.step is not None else None)


def _emit_do(cc: _Ctx, reg: _Region, s: ast.DoLoop) -> None:
    instrs = reg.instrs
    li = reg.n_loops
    reg.n_loops += 1
    amt, sev, tev, pev = _compile_bounds(s, cc)
    rawvar = s.var
    vname = s.var.upper()
    kernel = _kernel_slot(s, cc)
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
        if trips >= _VEC_MIN_TRIPS \
                and kernel[0](ex, fr, var, trips, start, step):
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
    cell, levels = _resolve_label(cc, target)
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


def _emit_omp(cc: _Ctx, reg: _Region, s: ast.OmpParallelDo) -> None:
    instrs = reg.instrs
    nxt = len(instrs) + 1
    loop = s.loop
    amt, sev, tev, pev = _compile_bounds(loop, cc)
    vname = loop.var.upper()
    private_names = tuple(n.upper() for n in s.private)
    site = cc.omp_site[id(s)]
    kernel = _kernel_slot(loop, cc, site, private_names)
    sub = _Region()
    cc.omp_depth += 1
    _compile_block(cc, sub, loop.body)
    cc.omp_depth -= 1
    body = sub.packed()

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
        # before the kernel, which refuses to run without every local it
        # touches: this may create the private ones
        slices = ex._private_storage(private_names, fr)
        # no ScalarRef check for the schedule: the tree-walker omits it
        # for the parallel path (an array DO variable fails in var.set)
        if trips >= _VEC_MIN_TRIPS \
                and var.__class__ is ScalarRef \
                and kernel[0](ex, fr, var, trips, start, step):
            # in program order the kernel is the loop, and has recorded
            # this region and the regions inside it.  Any other schedule,
            # and a kernel that refused (having changed nothing), runs
            # iteration by iteration
            return nxt
        try:
            ex._omp_iterations(site, slices, var, start, step, trips,
                               lambda: run_region(ex, body, fr))
        except _CrossGoto as cg:
            if cg.levels <= 1:
                return cg.cell[0]
            cg.levels -= 1
            raise
        return nxt
    instrs.append(instr)


# ---------------------------------------------------------------------------
# the compiled interpreter
# ---------------------------------------------------------------------------

class CompiledInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` executing compiled closure templates.

    Frame construction, COMMON allocation, DATA statements, argument
    binding, calls, the directive schedule and the cost model are the
    tree-walker's, and so is every statement and expression the closures
    leave cold; only the strict core and the hot statements are
    compiled (:meth:`_run_body`).  Templates are cached process-wide per
    unit content hash, so constructing many interpreters over the same
    program only lowers each unit once.
    """

    def __init__(self, program: Program, **kwargs):
        super().__init__(program, **kwargs)
        #: the share of ``steps`` that vector kernels committed, the
        #: kernel calls that committed and the calls that refused
        self.kernel_steps = self.kernel_launches = self.kernel_bails = 0
        self._templates: Dict[int, tuple] = {}

    def _template(self, unit: ast.ProgramUnit) -> tuple:
        tmpl = self._templates.get(id(unit))
        if tmpl is None:
            tmpl = _template_for(unit, self.honor)
            self._templates[id(unit)] = tmpl
        return tmpl

    def _run_body(self, unit: ast.ProgramUnit, frame) -> None:
        run_region(self, self._template(unit), frame)

    def run(self) -> ExecutionResult:
        try:
            # silent numpy errors for every kernel of the run at once
            # (one np.errstate a launch cost 3 µs): the scalar path
            # computes on Python floats, which it does not touch
            with np.errstate(all="ignore"):
                return super().run()
        finally:
            metrics = _get_metrics()
            for name in ("steps", "kernel_steps", "kernel_launches",
                         "kernel_bails"):
                metrics[name].inc(getattr(self, name))
