"""Tree-walking interpreter for the Fortran 77 subset.

Faithful to the semantics the paper's pathologies depend on:

* by-reference argument passing — an array-element actual binds an array
  formal to a *view* starting at that element (Figure 2/3 aliasing);
* column-major storage and sequence-associated COMMON blocks;
* adjustable array formals (``DIMENSION M1(L)``) with extents evaluated
  in the callee after scalar binding;
* DO semantics with the trip count computed on entry.

Parallel execution (:class:`~repro.fortran.ast.OmpParallelDo`) is
*simulated*: iterations run in program order for determinism, private
variables get fresh (zeroed) storage per iteration with the last
iteration peeled onto the original storage — exactly the
last-iteration-peeling contract Polaris uses (paper Section III-B4) —
and wall-clock cost is modelled per :class:`~repro.runtime.machine.MachineModel`.
The differential tester (:mod:`repro.runtime.difftest`) also supports a
permuted iteration order to validate independence dynamically.

Cost accounting: every visited expression node and executed statement
charges ~1 work unit; the simulated time of a parallel region is
``fork_join + max over threads of assigned iteration cost``.

Whenever directives are honoured the run also records its region tree
(:class:`~repro.runtime.machine.RegionProfile`, returned as
``ExecutionResult.regions``): one node per executed parallel region with
the cost charged inside each iteration.  Made with ``machine=None`` those
are base costs, and :func:`repro.runtime.machine.price` replays the tree
for any machine and any set of disabled directives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FortranStop, InterpreterError
from repro.fortran import ast
from repro.fortran.intrinsics import is_intrinsic
from repro.fortran.symbols import SymbolTable, VarInfo, build_symbol_table
from repro.program import Program
from repro.runtime.intrinsics import call_intrinsic, power
from repro.runtime.machine import (MachineModel, RegionProfile,
                                   RegionRecorder, Site)
from repro.runtime.values import ArrayView, ScalarRef

_MAX_STEPS = 200_000_000


class _GotoSignal(Exception):
    def __init__(self, label: int):
        self.label = label


def collect_omp_sites(body: Sequence[ast.Stmt]) -> List[ast.OmpParallelDo]:
    """Every OmpParallelDo in ``body``, in the deterministic preorder
    that numbers directive sites.  Compilation (on the template's
    structural twin), region recording and the tuning pass (on the live
    unit) all call this, so site index ``k`` names the same directive in
    a program and in every clone of it."""
    out: List[ast.OmpParallelDo] = []

    def walk(stmts: Sequence[ast.Stmt]) -> None:
        for s in stmts:
            if isinstance(s, ast.OmpParallelDo):
                out.append(s)
                walk(s.loop.body)
            elif isinstance(s, ast.DoLoop):
                walk(s.body)
            elif isinstance(s, ast.IfBlock):
                for _cond, arm in s.arms:
                    walk(arm)
            # TaggedBlock bodies are summaries, never executed or compiled

    walk(body)
    return out


def number_omp_sites(program: Program) -> Dict[int, Site]:
    """Directive identity -> site, for every directive of ``program``."""
    return {id(node): (unit.name, index)
            for unit in program.units
            for index, node in enumerate(collect_omp_sites(unit.body))}


def outputs_equal(a: List[str], b: List[str], rtol: float = 1e-9) -> bool:
    """Compare output logs, numerically where tokens parse as numbers.

    Parallel reductions legally reorder floating-point sums, so printed
    values may differ in the last bits; a relative tolerance absorbs that
    without masking real divergence.
    """
    if len(a) != len(b):
        return False
    for la, lb in zip(a, b):
        ta, tb = la.split(), lb.split()
        if len(ta) != len(tb):
            return False
        for xa, xb in zip(ta, tb):
            try:
                fa, fb = float(xa), float(xb)
            except ValueError:
                if xa != xb:
                    return False
                continue
            # symmetric tolerance: scale by the larger magnitude so the
            # verdict cannot depend on comparison order
            if not (abs(fa - fb) <= max(abs(fa), abs(fb)) * rtol + 1e-12):
                return False
    return True


@dataclass
class ExecutionResult:
    output: List[str]
    cost: float
    commons: Dict[str, np.ndarray]
    stop_message: Optional[str] = None
    #: the region tree, when the run honoured directives
    regions: Optional[RegionProfile] = None

    def memory_equal(self, other: "ExecutionResult",
                     rtol: float = 1e-9) -> bool:
        if set(self.commons) != set(other.commons):
            return False
        for name, buf in self.commons.items():
            theirs = other.commons[name]
            # np.allclose would raise on broadcast-incompatible shapes
            if buf.shape != theirs.shape:
                return False
            if not np.allclose(buf, theirs, rtol=rtol, atol=1e-12):
                return False
        return outputs_equal(self.output, other.output, rtol)


@dataclass
class _Frame:
    unit: ast.ProgramUnit
    table: SymbolTable
    vars: Dict[str, Union[ScalarRef, ArrayView]] = field(default_factory=dict)
    parameters: Dict[str, float] = field(default_factory=dict)


#: iteration-order policies for parallel loops
ORDER_SEQUENTIAL = "sequential"
ORDER_PERMUTED = "permuted"


class Interpreter:
    """Executes a :class:`~repro.program.Program`.

    ``machine`` enables parallel-cost simulation for OmpParallelDo nodes
    (without it they execute as plain loops at serial cost).
    ``iteration_order`` selects the dynamic schedule used to *validate*
    parallel loops (see module docstring).
    """

    def __init__(self, program: Program,
                 machine: Optional[MachineModel] = None,
                 honor_directives: bool = True,
                 iteration_order: str = ORDER_SEQUENTIAL,
                 inputs: Optional[Sequence[float]] = None,
                 max_steps: int = _MAX_STEPS):
        self.program = program
        self.machine = machine
        self.honor = honor_directives
        self.order = iteration_order
        self.inputs = list(inputs or [])
        self.max_steps = max_steps
        self.cost = 0.0
        self.steps = 0
        self.output: List[str] = []
        self.parallel_depth = 0
        self._tables: Dict[int, SymbolTable] = {}
        self.commons: Dict[str, np.ndarray] = {}
        #: per-unit cache of COMMON views and PARAMETER values (the
        #: buffers are fixed for the program's lifetime, so the views are
        #: shareable across frames)
        self._unit_statics: Dict[int, tuple] = {}
        self._intdiv_cache: Dict[int, bool] = {}
        #: per-directive accumulated (serial_body_cost, parallel_cost),
        #: keyed by node identity — consumed by the tuning pass
        self.omp_stats: Dict[int, List[float]] = {}
        #: the region tree of this run, and directive identity -> site
        self._regions = RegionRecorder()
        self._sites: Optional[Dict[int, Site]] = None
        self._allocate_commons()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _table(self, unit: ast.ProgramUnit) -> SymbolTable:
        key = id(unit)
        if key not in self._tables:
            self._tables[key] = build_symbol_table(unit)
        return self._tables[key]

    def _allocate_commons(self) -> None:
        sizes: Dict[str, int] = {}
        for unit in self.program.units:
            table = self._table(unit)
            for block, names in table.common_blocks.items():
                total = 0
                for name in names:
                    total += self._static_size(table.variables[name], table)
                sizes[block] = max(sizes.get(block, 0), total)
        for block, size in sizes.items():
            self.commons[block] = np.zeros(size, dtype=np.float64)

    def _static_size(self, info: VarInfo, table: SymbolTable) -> int:
        if info.dims is None:
            return 1
        total = 1
        for d in info.dims:
            ext = self._const_extent(d, table)
            if ext is None:
                raise InterpreterError(
                    f"COMMON array {info.name} needs constant dimensions")
            total *= ext
        return total

    def _const_extent(self, d: ast.Dim,
                      table: SymbolTable) -> Optional[int]:
        lo = self._const_value(d.lower, table)
        if d.upper is None or lo is None:
            return None
        hi = self._const_value(d.upper, table)
        if hi is None:
            return None
        return hi - lo + 1

    def _const_value(self, e: ast.Expr,
                     table: SymbolTable) -> Optional[int]:
        from repro.analysis.symbolic import from_expr
        poly = from_expr(e)
        c = poly.constant_value()
        if c is not None:
            return c
        # substitute PARAMETER constants
        def subst(x: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(x, ast.Var):
                info = table.variables.get(x.name.upper())
                if info is not None and info.parameter_value is not None:
                    return info.parameter_value
            return None
        c = from_expr(ast.map_expr(ast.clone(e), subst)).constant_value()
        return c

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def _new_frame(self, unit: ast.ProgramUnit) -> _Frame:
        table = self._table(unit)
        key = id(unit)
        cached = self._unit_statics.get(key)
        if cached is None:
            frame = _Frame(unit, table)
            for name, info in table.variables.items():
                if info.parameter_value is not None:
                    v = self._const_value(info.parameter_value, table)
                    frame.parameters[name] = float(v) if v is not None \
                        else self._eval_literal(info.parameter_value)
            for block, names in table.common_blocks.items():
                buf = self.commons[block]
                offset = 0
                for name in names:
                    info = table.variables[name]
                    size = self._static_size(info, table)
                    if info.dims is None:
                        frame.vars[name] = ScalarRef(buf, offset,
                                                     info.typename)
                    else:
                        lowers, extents = self._shape(info, frame, table)
                        frame.vars[name] = ArrayView(buf, offset, lowers,
                                                     extents, info.typename,
                                                     name)
                    offset += size
            cached = (dict(frame.vars), dict(frame.parameters))
            self._unit_statics[key] = cached
        common_vars, parameters = cached
        frame = _Frame(unit, table)
        frame.vars.update(common_vars)
        frame.parameters.update(parameters)
        return frame

    def _eval_literal(self, e: ast.Expr) -> float:
        if isinstance(e, ast.RealLit):
            return e.value
        if isinstance(e, ast.IntLit):
            return float(e.value)
        raise InterpreterError("PARAMETER value is not constant")

    def _shape(self, info: VarInfo, frame: _Frame, table: SymbolTable
               ) -> Tuple[List[int], List[Optional[int]]]:
        lowers: List[int] = []
        extents: List[Optional[int]] = []
        for d in info.dims or ():
            lo = self._const_value(d.lower, table)
            if lo is None:
                lo = int(self._eval(d.lower, frame))
            lowers.append(lo)
            if d.upper is None:
                extents.append(None)
            else:
                hi = self._const_value(d.upper, table)
                if hi is None:
                    hi = int(self._eval(d.upper, frame))
                extents.append(hi - lo + 1)
        return lowers, extents

    def _local(self, name: str, frame: _Frame) -> Union[ScalarRef, ArrayView]:
        name = name.upper()
        ref = frame.vars.get(name)
        if ref is not None:
            return ref
        info = frame.table.info(name)
        if info.dims is None:
            ref = ScalarRef(np.zeros(1, dtype=np.float64), 0, info.typename)
        else:
            lowers, extents = self._shape(info, frame, frame.table)
            if any(e is None for e in extents):
                raise InterpreterError(
                    f"local array {name} in {frame.unit.name} has "
                    f"non-constant dimensions and is not a formal")
            total = 1
            for e in extents:
                total *= e  # type: ignore[operator]
            ref = ArrayView(np.zeros(total, dtype=np.float64), 0, lowers,
                            extents, info.typename, name)
        frame.vars[name] = ref
        return ref

    def _apply_data(self, frame: _Frame) -> None:
        for d in frame.unit.find_decls(ast.DataDecl):
            values = [self._eval(v, frame) for v in d.values]
            idx = 0
            for target in d.targets:
                if isinstance(target, ast.Var):
                    ref = self._local(target.name, frame)
                    if isinstance(ref, ArrayView):
                        n = ref.size()
                        for k in range(n):
                            ref.buffer[ref.offset + k] = values[idx]
                            idx += 1
                    else:
                        ref.set(values[idx])
                        idx += 1
                elif isinstance(target, ast.ArrayRef):
                    view = self._local(target.name, frame)
                    subs = [int(self._eval(s, frame)) for s in target.subs]
                    view.set(subs, values[idx])
                    idx += 1

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        main = self.program.main
        stop_message: Optional[str] = None
        try:
            self._exec_unit(main, [])
        except FortranStop as stop:
            stop_message = stop.message or ""
        return self._result(stop_message)

    def _result(self, stop_message: Optional[str]) -> ExecutionResult:
        regions = self._regions.profile(self.cost, self.machine) \
            if self.honor else None
        return ExecutionResult(self.output, self.cost,
                               {k: v.copy() for k, v in self.commons.items()},
                               stop_message, regions)

    def _exec_unit(self, unit: ast.ProgramUnit,
                   bound: Sequence[Tuple[str, Union[ScalarRef, ArrayView]]]
                   ) -> _Frame:
        frame = self._new_frame(unit)
        for name, ref in bound:
            frame.vars[name.upper()] = ref
        self._apply_data(frame)
        try:
            self._exec_block(unit.body, frame)
        except _GotoSignal as g:
            raise InterpreterError(
                f"GOTO {g.label} has no target in {unit.name}")
        return frame

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _exec_block(self, body: Sequence[ast.Stmt], frame: _Frame) -> None:
        i = 0
        labels = {s.label: k for k, s in enumerate(body)
                  if getattr(s, "label", None)}
        while i < len(body):
            try:
                self._exec_stmt(body[i], frame)
            except _GotoSignal as g:
                if g.label in labels:
                    i = labels[g.label]
                    continue
                raise
            i += 1

    def _charge(self, amount: float = 1.0) -> None:
        self.cost += amount
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError("execution step limit exceeded")

    def _exec_stmt(self, s: ast.Stmt, frame: _Frame) -> None:
        self._charge()
        if isinstance(s, ast.Assign):
            value = self._eval(s.value, frame)
            self._store(s.target, value, frame)
        elif isinstance(s, ast.IfBlock):
            for cond, arm in s.arms:
                if cond is None or self._eval(cond, frame) != 0.0:
                    self._exec_block(arm, frame)
                    return
        elif isinstance(s, ast.DoLoop):
            self._exec_do(s, frame)
        elif isinstance(s, ast.OmpParallelDo):
            self._exec_omp(s, frame)
        elif isinstance(s, ast.CallStmt):
            self._call(s.name, s.args, frame)
        elif isinstance(s, ast.Goto):
            raise _GotoSignal(s.target)
        elif isinstance(s, ast.ComputedGoto):
            idx = int(self._eval(s.index, frame))
            # F77 semantics: an index outside 1..n falls through
            if 1 <= idx <= len(s.targets):
                raise _GotoSignal(s.targets[idx - 1])
        elif isinstance(s, ast.LabelAssign):
            ref = self._local(s.var, frame)
            if not isinstance(ref, ScalarRef):
                raise InterpreterError(
                    f"ASSIGN target {s.var} is an array")
            ref.set(float(s.target_label))
        elif isinstance(s, ast.AssignedGoto):
            if not s.targets:
                raise InterpreterError(
                    "assigned GOTO without a label list is not executable")
            idx = int(self._eval(ast.Var(s.var), frame))
            if idx not in s.targets:
                raise InterpreterError(
                    f"assigned GOTO label {idx} not in its label list")
            raise _GotoSignal(idx)
        elif isinstance(s, (ast.Continue,)):
            pass
        elif isinstance(s, ast.Return):
            raise _ReturnSignal()
        elif isinstance(s, ast.Stop):
            raise FortranStop(s.message or "")
        elif isinstance(s, ast.IoStmt):
            self._exec_io(s, frame)
        elif isinstance(s, ast.TaggedBlock):
            raise InterpreterError(
                "annotation-inlined code is not executable (it is a "
                "summary, not an implementation); reverse-inline first")
        else:
            raise InterpreterError(f"cannot execute {type(s).__name__}")

    def _exec_do(self, s: ast.DoLoop, frame: _Frame) -> None:
        start = self._eval(s.start, frame)
        stop = self._eval(s.stop, frame)
        step = self._eval(s.step, frame) if s.step is not None else 1.0
        if step == 0:
            raise InterpreterError("DO step is zero")
        trips = max(0, int((stop - start + step) // step))
        var = self._local(s.var, frame)
        if not isinstance(var, ScalarRef):
            raise InterpreterError(f"DO variable {s.var} is an array")
        value = start
        for _ in range(trips):
            var.set(value)
            self._exec_block(s.body, frame)
            value += step
        var.set(value)

    def _exec_io(self, s: ast.IoStmt, frame: _Frame) -> None:
        if s.kind == "READ":
            for item in s.items:
                if not self.inputs:
                    raise InterpreterError("READ beyond provided input")
                self._store(item, self.inputs.pop(0), frame)
            return
        parts = []
        for item in s.items:
            v = self._eval(item, frame)
            parts.append(str(v) if not isinstance(v, str) else v)
        self.output.append(" ".join(parts))

    # ------------------------------------------------------------------
    # OpenMP simulation
    # ------------------------------------------------------------------
    def _exec_omp(self, s: ast.OmpParallelDo, frame: _Frame) -> None:
        loop = s.loop
        if not self.honor:
            # directives ignored: the plain serial loop (used as the
            # baseline side of differential testing)
            self._exec_do(loop, frame)
            return
        start = self._eval(loop.start, frame)
        stop = self._eval(loop.stop, frame)
        step = self._eval(loop.step, frame) if loop.step is not None else 1.0
        if step == 0:
            raise InterpreterError("DO step is zero")
        trips = max(0, int((stop - start + step) // step))
        var = self._local(loop.var, frame)

        private_slices = self._private_storage(s.private, frame)
        saved = [(buf, off, buf[off:off + size].copy())
                 for buf, off, size in private_slices]

        order = list(range(trips))
        if self.order == ORDER_PERMUTED and trips > 1:
            # any order is legal for an independent loop, but the peeled
            # (original-storage) iteration must still run last in time
            order = list(reversed(range(trips - 1))) + [trips - 1]

        iteration_costs: List[float] = []
        self._enter_region(s, iteration_costs)
        completed = False
        self.parallel_depth += 1
        try:
            for pos, k in enumerate(order):
                is_peeled = (k == trips - 1)
                if is_peeled:
                    for (buf, off, data) in saved:
                        buf[off:off + len(data)] = data
                else:
                    for (buf, off, size) in private_slices:
                        buf[off:off + size] = 0.0
                var.set(start + k * step)
                before = self.cost
                self._exec_block(loop.body, frame)
                iteration_costs.append(self.cost - before)
            var.set(start + trips * step)
            completed = True
        finally:
            self.parallel_depth -= 1
            self._regions.leave(completed)
        if self.machine is not None:
            serial_cost = sum(iteration_costs)
            parallel_cost = self.machine.parallel_time(
                iteration_costs, nested=self.parallel_depth > 0)
            self.cost += parallel_cost - serial_cost
            stat = self.omp_stats.setdefault(id(s), [0.0, 0.0])
            stat[0] += serial_cost
            stat[1] += parallel_cost

    def _enter_region(self, s: ast.OmpParallelDo,
                      iteration_costs: List[float]) -> None:
        """Start recording an execution of ``s``; ``iteration_costs`` is
        the live list its iterations' costs are appended to."""
        if self._sites is None:
            self._sites = number_omp_sites(self.program)
        self._regions.enter(self._sites[id(s)], iteration_costs)

    def _private_storage(self, names: Sequence[str], frame: _Frame):
        slices = []
        for name in names:
            ref = frame.vars.get(name.upper())
            if ref is None:
                ref = self._local(name, frame)
            if isinstance(ref, ScalarRef):
                slices.append((ref.buffer, ref.offset, 1))
            else:
                slices.append((ref.buffer, ref.offset, ref.size()))
        return slices

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def _call(self, name: str, args: Sequence[ast.Expr],
              frame: _Frame) -> Optional[float]:
        name = name.upper()
        unit = self.program.procedures.get(name)
        if unit is None:
            raise InterpreterError(
                f"procedure {name} is not defined in the program (external "
                f"library code cannot be executed)")
        self._charge(5.0)
        callee_table = self._table(unit)
        bound: List[Tuple[str, Union[ScalarRef, ArrayView]]] = []
        array_bindings: List[Tuple[str, VarInfo, object]] = []
        if len(args) != len(unit.params):
            raise InterpreterError(
                f"{name}: expected {len(unit.params)} arguments, got "
                f"{len(args)}")
        for formal, actual in zip(unit.params, args):
            finfo = callee_table.info(formal)
            ref = self._argument_ref(actual, frame)
            if finfo.dims is not None:
                array_bindings.append((formal.upper(), finfo, ref))
            else:
                bound.append((formal.upper(),
                              self._as_scalar_ref(ref, finfo.typename)))
        callee_frame = self._new_frame(unit)
        for fname, ref in bound:
            callee_frame.vars[fname] = ref
        # adjustable dims evaluate after scalars are bound
        for fname, finfo, ref in array_bindings:
            lowers, extents = self._shape(finfo, callee_frame, callee_table)
            view = self._as_array_view(ref, lowers, extents, finfo.typename,
                                       fname)
            callee_frame.vars[fname] = view
        self._apply_data(callee_frame)
        try:
            self._exec_block(unit.body, callee_frame)
        except _ReturnSignal:
            pass
        except _GotoSignal as g:
            raise InterpreterError(
                f"GOTO {g.label} has no target in {unit.name}")
        if unit.kind == "FUNCTION":
            result = callee_frame.vars.get(unit.name.upper())
            if not isinstance(result, ScalarRef):
                raise InterpreterError(
                    f"function {unit.name} never set its result")
            return result.get()
        return None

    def _argument_ref(self, actual: ast.Expr, frame: _Frame):
        if isinstance(actual, ast.Var):
            return self._local(actual.name, frame)
        if isinstance(actual, ast.ArrayRef):
            base = self._local(actual.name, frame)
            if isinstance(base, ArrayView):
                subs = [int(self._eval(x, frame)) for x in actual.subs]
                return ("element", base, subs)
            raise InterpreterError(
                f"{actual.name} subscripted but not an array")
        value = self._eval(actual, frame)
        tmp = ScalarRef(np.zeros(1, dtype=np.float64), 0, "DOUBLE PRECISION")
        tmp.set(float(value))
        return tmp

    def _as_scalar_ref(self, ref, typename: str) -> ScalarRef:
        if isinstance(ref, ScalarRef):
            return ScalarRef(ref.buffer, ref.offset, typename)
        if isinstance(ref, ArrayView):
            return ScalarRef(ref.buffer, ref.offset, typename)
        if isinstance(ref, tuple) and ref[0] == "element":
            _, base, subs = ref
            r = base.element_ref(subs)
            return ScalarRef(r.buffer, r.offset, typename)
        raise InterpreterError("bad scalar argument binding")

    def _as_array_view(self, ref, lowers, extents, typename: str,
                       name: str) -> ArrayView:
        if isinstance(ref, ArrayView):
            return ArrayView(ref.buffer, ref.offset, lowers, extents,
                             typename, name)
        if isinstance(ref, tuple) and ref[0] == "element":
            _, base, subs = ref
            return base.subview(subs, lowers, extents, typename, name)
        if isinstance(ref, ScalarRef):
            return ArrayView(ref.buffer, ref.offset, lowers, extents,
                             typename, name)
        raise InterpreterError("bad array argument binding")

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _store(self, target: ast.Expr, value, frame: _Frame) -> None:
        if isinstance(target, ast.Var):
            ref = self._local(target.name, frame)
            if isinstance(ref, ArrayView):
                ref.fill(float(value))  # whole-array assignment
            else:
                ref.set(float(value))
            return
        if isinstance(target, ast.ArrayRef):
            view = self._local(target.name, frame)
            if isinstance(view, ScalarRef):
                raise InterpreterError(
                    f"{target.name} subscripted but declared scalar")
            if any(isinstance(x, ast.RangeExpr) for x in target.subs):
                self._store_region(view, target.subs, float(value), frame)
                return
            subs = [int(self._eval(x, frame)) for x in target.subs]
            view.set(subs, float(value))
            return
        raise InterpreterError(f"bad assignment target {target!r}")

    def _store_region(self, view: ArrayView, subs, value: float,
                      frame: _Frame) -> None:
        ranges: List[range] = []
        for k, sub in enumerate(subs):
            if isinstance(sub, ast.RangeExpr):
                lo = int(self._eval(sub.lo, frame)) if sub.lo is not None \
                    else view.lowers[k]
                if sub.hi is not None:
                    hi = int(self._eval(sub.hi, frame))
                elif view.extents[k] is not None:
                    hi = view.lowers[k] + view.extents[k] - 1
                else:
                    raise InterpreterError(
                        "region on assumed-size dimension")
                ranges.append(range(lo, hi + 1))
            else:
                v = int(self._eval(sub, frame))
                ranges.append(range(v, v + 1))
        import itertools
        for combo in itertools.product(*ranges):
            view.set(list(combo), value)

    def _eval(self, e: ast.Expr, frame: _Frame):
        self.cost += 0.5
        if isinstance(e, ast.BinOp):
            return self._binop(e, frame)
        if isinstance(e, ast.IntLit):
            return float(e.value)
        if isinstance(e, ast.RealLit):
            return e.value
        if isinstance(e, ast.LogicalLit):
            return 1.0 if e.value else 0.0
        if isinstance(e, ast.StringLit):
            return e.value
        if isinstance(e, ast.Var):
            name = e.name.upper()
            if name in frame.parameters:
                return frame.parameters[name]
            ref = self._local(name, frame)
            if isinstance(ref, ArrayView):
                raise InterpreterError(
                    f"array {name} used where a scalar value is needed")
            return ref.get()
        if isinstance(e, ast.ArrayRef):
            view = self._local(e.name, frame)
            if isinstance(view, ScalarRef):
                raise InterpreterError(
                    f"{e.name} subscripted but declared scalar")
            if any(isinstance(x, ast.RangeExpr) for x in e.subs):
                # region read: value of its first element (generated code
                # only; never executed on the reversed output)
                subs = []
                for k, sub in enumerate(e.subs):
                    if isinstance(sub, ast.RangeExpr):
                        subs.append(view.lowers[k]
                                    if sub.lo is None
                                    else int(self._eval(sub.lo, frame)))
                    else:
                        subs.append(int(self._eval(sub, frame)))
                return view.get(subs)
            subs = [int(self._eval(x, frame)) for x in e.subs]
            return view.get(subs)
        if isinstance(e, ast.FuncRef):
            if is_intrinsic(e.name):
                argv = [self._eval(a, frame) for a in e.args]
                return call_intrinsic(e.name, argv)
            result = self._call(e.name, e.args, frame)
            if result is None:
                raise InterpreterError(
                    f"{e.name} is a subroutine, not a function")
            return result
        if isinstance(e, ast.UnOp):
            v = self._eval(e.operand, frame)
            if e.op == "-":
                return -v
            if e.op == "+":
                return v
            if e.op == ".NOT.":
                return 0.0 if v != 0.0 else 1.0
            raise InterpreterError(f"unknown unary {e.op}")
        raise InterpreterError(f"cannot evaluate {type(e).__name__}")

    def _binop(self, e: ast.BinOp, frame: _Frame):
        op = e.op
        if op == ".AND.":
            return 1.0 if (self._eval(e.left, frame) != 0.0
                           and self._eval(e.right, frame) != 0.0) else 0.0
        if op == ".OR.":
            return 1.0 if (self._eval(e.left, frame) != 0.0
                           or self._eval(e.right, frame) != 0.0) else 0.0
        a = self._eval(e.left, frame)
        b = self._eval(e.right, frame)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise InterpreterError("division by zero")
            is_int = self._intdiv_cache.get(id(e))
            if is_int is None:
                from repro.fortran.symbols import expr_type
                is_int = (expr_type(e.left, frame.table) == "INTEGER"
                          and expr_type(e.right, frame.table) == "INTEGER")
                self._intdiv_cache[id(e)] = is_int
            if is_int:
                ia, ib = int(a), int(b)
                q = abs(ia) // abs(ib)
                return float(q if (ia < 0) == (ib < 0) else -q)
            return a / b
        if op == "**":
            return power(a, b)
        if op == "==":
            return 1.0 if a == b else 0.0
        if op == "/=":
            return 1.0 if a != b else 0.0
        if op == "<":
            return 1.0 if a < b else 0.0
        if op == "<=":
            return 1.0 if a <= b else 0.0
        if op == ">":
            return 1.0 if a > b else 0.0
        if op == ">=":
            return 1.0 if a >= b else 0.0
        if op in (".EQV.",):
            return 1.0 if (a != 0.0) == (b != 0.0) else 0.0
        if op in (".NEQV.",):
            return 1.0 if (a != 0.0) != (b != 0.0) else 0.0
        if op == "//":
            return str(a) + str(b)
        raise InterpreterError(f"unknown operator {op}")


class _ReturnSignal(Exception):
    pass
