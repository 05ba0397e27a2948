"""Annotation -> Fortran translation (the Section III-C1 lowering).

For one call site, :func:`translate_call` instantiates a subroutine
annotation into plain Fortran 77 statements:

* **formals** are bound to the actual arguments — scalars by expression
  substitution, arrays by subscript remapping against the actual's
  declared shape (keeping the annotation's multi-dimensional view, which
  is how annotation inlining avoids the linearization pathology);
* **``unknown(e1..en)``** lowers to writes of the operands into a fresh
  per-occurrence capture array ``GU<j>$A<site>`` followed by reads of that
  array — the paper's "define a new uninitialized global array, modify the
  array with all the operands, then replace the invocation with an access
  to the new array".  Capture arrays are compiler-generated scratch: the
  parallelizer recognizes the ``$A`` suffix convention via
  :func:`is_generated_name` and treats them as iteration-private;
* **``unique(x1..xn)``** lowers to the injective linear form
  ``B**(n-1)*x1 + ... + B*x(n-1) + xn`` (base ``B`` configurable — the
  ablation benchmark shows independence proofs need ``B`` to exceed the
  inner subscript ranges, i.e. injectivity over the actual value ranges);
* **array regions / whole-array assignments** lower to generated DO loops
  over the region extents (exactly what the paper's Figure 18 shows for
  ``M3 = 0.0``), with deterministic per-site loop variable names so the
  reverse inliner can regenerate byte-identical templates.

``pattern_mode=True`` generates the *matching template* instead: formals
become ``PAT$<name>`` placeholders that the reverse inliner unifies
against the optimized code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.annotations import ast as aast
from repro.errors import AnnotationError
from repro.fortran import ast as fast
from repro.fortran.symbols import SymbolTable

from repro.naming import (GENERATED_SUFFIX_MARKER, PATTERN_PREFIX,  # noqa: F401
                          is_capture_array, is_generated_name)


@dataclass(frozen=True)
class TranslateOptions:
    unique_base: int = 64


@dataclass
class ArrayBinding:
    """Array formal bound to caller array ``name``: ``F[i1..ir]`` maps to
    ``name(i1 + base[0]-1, ..., ir + base[r-1]-1, trailing...)``."""

    name: str
    base: Tuple[fast.Expr, ...]
    trailing: Tuple[fast.Expr, ...]


@dataclass
class Translation:
    stmts: List[fast.Stmt]
    decls: List[fast.Decl]
    capture_arrays: List[str]


class _Translator:
    def __init__(self, ann: aast.ASubroutine,
                 actuals: Sequence[fast.Expr],
                 caller_table: Optional[SymbolTable],
                 site_id: int,
                 opts: TranslateOptions,
                 pattern_mode: bool):
        self.ann = ann
        self.site_id = site_id
        self.opts = opts
        self.pattern_mode = pattern_mode
        self.caller_table = caller_table
        self.ann_dims = ann.declared_dims()
        self.decls: List[fast.Decl] = []
        self.captures: List[str] = []
        self.unknown_counter = 0
        self.loopvar_counter = 0
        self.scalar_bind: Dict[str, fast.Expr] = {}
        self.array_bind: Dict[str, ArrayBinding] = {}
        self.local_rename: Dict[str, str] = {}
        self._bind_formals(actuals)
        self._collect_locals()

    # ------------------------------------------------------------------
    def _suffix(self, base: str) -> str:
        return f"{base}{GENERATED_SUFFIX_MARKER}{self.site_id}"

    def _bind_formals(self, actuals: Sequence[fast.Expr]) -> None:
        params = [p.upper() for p in self.ann.params]
        if self.pattern_mode:
            for p in params:
                if p in self.ann_dims:
                    self.array_bind[p] = ArrayBinding(
                        PATTERN_PREFIX + p, tuple(), tuple())
                else:
                    self.scalar_bind[p] = fast.Var(PATTERN_PREFIX + p)
            return
        if len(actuals) != len(params):
            raise AnnotationError(
                f"{self.ann.name}: annotation has {len(params)} formals "
                f"but the call passes {len(actuals)} arguments")
        for p, actual in zip(params, actuals):
            if p in self.ann_dims:
                self.array_bind[p] = self._array_binding(p, actual)
            else:
                self.scalar_bind[p] = actual

    def _array_binding(self, formal: str, actual: fast.Expr) -> ArrayBinding:
        rank = len(self.ann_dims[formal])
        if isinstance(actual, fast.Var):
            if self.caller_table is not None:
                info = self.caller_table.declared(actual.name)
                if info is not None and info.dims is not None \
                        and len(info.dims) != rank:
                    raise AnnotationError(
                        f"{self.ann.name}: array formal {formal} has rank "
                        f"{rank} but actual {actual.name} has rank "
                        f"{len(info.dims)}")
            return ArrayBinding(actual.name.upper(),
                                (fast.IntLit(1),) * rank, tuple())
        if isinstance(actual, fast.ArrayRef):
            subs = actual.subs
            if len(subs) < rank:
                raise AnnotationError(
                    f"{self.ann.name}: actual {actual.name} has fewer "
                    f"subscripts than formal {formal}'s rank {rank}")
            return ArrayBinding(actual.name.upper(),
                                tuple(subs[:rank]), tuple(subs[rank:]))
        raise AnnotationError(
            f"{self.ann.name}: array formal {formal} bound to a "
            f"non-array expression")

    def _collect_locals(self) -> None:
        """Annotation-declared locals (typed declarations of non-formals)
        and loop variables are renamed site-uniquely."""
        params = {p.upper() for p in self.ann.params}

        def scan(stmts: Sequence[aast.AnnStmt]) -> None:
            for s in stmts:
                if isinstance(s, aast.ADecl) and s.typename:
                    for e in s.entities:
                        if e.name.upper() not in params:
                            self.local_rename[e.name.upper()] = \
                                self._suffix(e.name.upper())
                elif isinstance(s, aast.ADo):
                    self.local_rename[s.var.upper()] = \
                        self._suffix(s.var.upper())
                    scan(s.body)
                elif isinstance(s, aast.AIf):
                    scan(s.then)
                    scan(s.els)

        scan(self.ann.body)

    # ------------------------------------------------------------------
    def run(self) -> Translation:
        stmts = self._stmts(self.ann.body)
        return Translation(stmts, self.decls, self.captures)

    def _stmts(self, body: Sequence[aast.AnnStmt]) -> List[fast.Stmt]:
        out: List[fast.Stmt] = []
        for s in body:
            out.extend(self._stmt(s))
        return out

    def _stmt(self, s: aast.AnnStmt) -> List[fast.Stmt]:
        if isinstance(s, aast.AAssign):
            return self._assign(s)
        if isinstance(s, aast.AIf):
            pre: List[fast.Stmt] = []
            cond = self._expr(s.cond, pre)
            arms: List[Tuple[Optional[fast.Expr], List[fast.Stmt]]] = [
                (cond, self._stmts(s.then))]
            if s.els:
                arms.append((None, self._stmts(s.els)))
            return pre + [fast.IfBlock(arms)]
        if isinstance(s, aast.ADo):
            pre = []
            start = self._expr(s.start, pre)
            stop = self._expr(s.stop, pre)
            step = self._expr(s.step, pre) if s.step is not None else None
            var = self.local_rename[s.var.upper()]
            body = self._stmts(s.body)
            return pre + [fast.DoLoop(var, start, stop, step, body)]
        if isinstance(s, aast.ADecl):
            return self._decl(s)
        if isinstance(s, aast.AReturn):
            raise AnnotationError(
                f"{self.ann.name}: 'return' is only meaningful for "
                f"function annotations, which this pipeline does not "
                f"inline")
        raise AnnotationError(f"unsupported annotation statement {s!r}")

    def _decl(self, s: aast.ADecl) -> List[fast.Stmt]:
        params = {p.upper() for p in self.ann.params}
        for e in s.entities:
            name = e.name.upper()
            if name in params:
                continue  # formal shape declarations guide binding only
            if s.typename:
                self.decls.append(fast.TypeDecl(
                    s.typename,
                    [fast.Entity(self.local_rename.get(name, name),
                                 e.dims)]))
            elif self.caller_table is not None \
                    and self.caller_table.declared(name) is None \
                    and not self.pattern_mode:
                # a global the caller does not declare: supply the shape
                self.decls.append(fast.DimensionDecl(
                    [fast.Entity(name, e.dims)]))
        return []

    # ------------------------------------------------------------------
    def _assign(self, s: aast.AAssign) -> List[fast.Stmt]:
        """Lower one annotation assignment.

        Multi-target assignments (grammar: ``vars = unknown(...)``) lower
        the special-operator RHS once (one capture array) and assign each
        target a distinct capture element; region or whole-array targets
        each expand into their own generated loops broadcasting the value.
        Single-target assignments with regions on both sides (the MATMLT
        form) substitute the target's generated loop variables
        positionally into the RHS regions before translation.
        """
        if isinstance(s.value, (aast.Unknown, aast.Unique)):
            pre: List[fast.Stmt] = []
            value = self._expr(s.value, pre)
            out = list(pre)
            for t_index, target in enumerate(s.targets):
                tvalue = value
                if len(s.targets) > 1:
                    tvalue = self._retarget_capture(value, t_index)
                out.extend(self._lower_target(target, tvalue, rhs_raw=None))
            return out
        if len(s.targets) != 1:
            raise AnnotationError(
                f"{self.ann.name}: multi-target assignment requires an "
                f"unknown()/unique() right-hand side")
        return self._lower_target(s.targets[0], None, rhs_raw=s.value)

    def _retarget_capture(self, value: fast.Expr, t_index: int) -> fast.Expr:
        """For ``(a,b,c) = unknown(...)`` each target reads a distinct
        element of the capture array (modulo its size)."""
        if isinstance(value, fast.ArrayRef) and is_capture_array(value.name):
            size = self._capture_size(value.name)
            idx = (t_index % size) + 1
            return fast.ArrayRef(value.name, (fast.IntLit(idx),))
        return value

    def _capture_size(self, name: str) -> int:
        for d in self.decls:
            if isinstance(d, fast.TypeDecl) \
                    and d.entities[0].name == name \
                    and d.entities[0].dims:
                upper = d.entities[0].dims[0].upper
                if isinstance(upper, fast.IntLit):
                    return upper.value
        return 1

    def _lower_target(self, target: fast.Expr,
                      value_translated: Optional[fast.Expr],
                      rhs_raw: Optional[fast.Expr]) -> List[fast.Stmt]:
        """Emit the statements assigning one target.

        Exactly one of ``value_translated`` (an already-lowered capture
        read) and ``rhs_raw`` (an untranslated annotation expression) is
        given.
        """
        # normalize the target to (name, raw subscript tuple or None)
        if isinstance(target, fast.Var):
            name = target.name.upper()
            if name in self.scalar_bind or (
                    not self._is_known_array(name)
                    and name not in self.array_bind):
                # plain scalar target
                return self._point_assign(target, value_translated, rhs_raw)
            rank = (len(self.ann_dims[name]) if name in self.array_bind
                    else self._array_rank(name))
            subs: Tuple[fast.Expr, ...] = tuple(
                fast.RangeExpr(None, None) for _ in range(rank))
        elif isinstance(target, fast.ArrayRef):
            name = target.name.upper()
            subs = target.subs
        else:
            raise AnnotationError(f"bad assignment target {target!r}")

        if not any(isinstance(x, fast.RangeExpr) for x in subs):
            return self._point_assign(fast.ArrayRef(name, subs),
                                      value_translated, rhs_raw)

        # region target: build generated loops over the region extents
        loops: List[Tuple[str, fast.Expr, fast.Expr]] = []
        point_subs: List[fast.Expr] = []
        for k, sub in enumerate(subs):
            if isinstance(sub, fast.RangeExpr):
                lo_raw, hi_raw = self._region_bounds_raw(name, k, sub)
                self.loopvar_counter += 1
                var = self._suffix(f"Z{self.loopvar_counter}")
                pre_b: List[fast.Stmt] = []
                lo = self._expr(lo_raw, pre_b)
                hi = self._expr(hi_raw, pre_b)
                if pre_b:
                    raise AnnotationError(
                        f"{self.ann.name}: region bounds of {name} may "
                        f"not contain unknown()")
                loops.append((var, lo, hi))
                point_subs.append(fast.Var(var))
            else:
                point_subs.append(sub)

        if rhs_raw is not None:
            rhs_raw = self._substitute_rhs_regions(rhs_raw, loops)
        pre: List[fast.Stmt] = []
        if rhs_raw is not None:
            value = self._expr(rhs_raw, pre)
        else:
            value = value_translated
        mapped = self._map_array_ref(name, tuple(point_subs), pre)
        stmt: fast.Stmt = fast.Assign(mapped, value)
        for var, lo, hi in reversed(loops):
            stmt = fast.DoLoop(var, lo, hi, None, [stmt])
        return pre + [stmt]

    def _point_assign(self, target: fast.Expr,
                      value_translated: Optional[fast.Expr],
                      rhs_raw: Optional[fast.Expr]) -> List[fast.Stmt]:
        pre: List[fast.Stmt] = []
        if rhs_raw is not None:
            value = self._expr(rhs_raw, pre)
        else:
            value = value_translated
        if isinstance(target, fast.Var):
            name = target.name.upper()
            if name in self.scalar_bind:
                bound = self.scalar_bind[name]
                if isinstance(bound, (fast.Var, fast.ArrayRef)):
                    return pre + [fast.Assign(bound, value)]
                raise AnnotationError(
                    f"{self.ann.name}: cannot assign through formal "
                    f"{name} bound to an expression")
            return pre + [fast.Assign(
                fast.Var(self.local_rename.get(name, name)), value)]
        assert isinstance(target, fast.ArrayRef)
        mapped = self._map_array_ref(target.name.upper(), target.subs, pre)
        if not isinstance(mapped, fast.ArrayRef):
            raise AnnotationError(
                f"bad array assignment target {target.name}")
        return pre + [fast.Assign(mapped, value)]

    def _substitute_rhs_regions(
            self, value: fast.Expr,
            loops: List[Tuple[str, fast.Expr, fast.Expr]]) -> fast.Expr:
        """Positionally substitute the target's generated loop variables
        into region reads on the RHS (the MATMLT form).  Regions inside
        unknown()/unique() operands are left intact — they lower into
        capture-array writes where a region read is meaningful on its
        own."""

        def rewrite(e: fast.Expr) -> Optional[fast.Expr]:
            if isinstance(e, (aast.Unknown, aast.Unique)):
                return e  # children already rebuilt; regions inside stay
            if isinstance(e, fast.ArrayRef) and any(
                    isinstance(x, fast.RangeExpr) for x in e.subs):
                regions = [x for x in e.subs
                           if isinstance(x, fast.RangeExpr)]
                if len(regions) != len(loops):
                    raise AnnotationError(
                        f"{self.ann.name}: RHS region on {e.name} does "
                        f"not match the target's region count")
                it = iter(loops)
                new = tuple(fast.Var(next(it)[0])
                            if isinstance(x, fast.RangeExpr) else x
                            for x in e.subs)
                return fast.ArrayRef(e.name, new)
            return None

        # map_expr rebuilds bottom-up, so guard Unknown/Unique by
        # substituting on a shallow copy that hides their args
        hidden: List[fast.Expr] = []

        def hide(e: fast.Expr) -> Optional[fast.Expr]:
            if isinstance(e, (aast.Unknown, aast.Unique)):
                hidden.append(e)
                return fast.Var(f"HIDDEN${len(hidden) - 1}")
            return None

        def unhide(e: fast.Expr) -> Optional[fast.Expr]:
            if isinstance(e, fast.Var) and e.name.startswith("HIDDEN$"):
                return hidden[int(e.name[7:])]
            return None

        value = fast.map_expr(value, hide)
        value = fast.map_expr(value, rewrite)
        return fast.map_expr(value, unhide)

    def _region_bounds_raw(self, name: str, dim_index: int,
                           sub: fast.RangeExpr
                           ) -> Tuple[fast.Expr, fast.Expr]:
        """Raw (untranslated) bounds of one region dimension.  Bounds for
        array formals are in the *formal's* index space — the point
        reference produced under the generated loops maps through the
        binding offsets afterwards."""
        if sub.lo is not None and sub.hi is not None:
            return sub.lo, sub.hi
        dims = self._declared_dims(name)
        if dims is None or dim_index >= len(dims) \
                or dims[dim_index].upper is None:
            raise AnnotationError(
                f"{self.ann.name}: cannot determine the extent of "
                f"dimension {dim_index + 1} of {name}")
        d = dims[dim_index]
        lo = sub.lo if sub.lo is not None else d.lower
        hi = sub.hi if sub.hi is not None else d.upper
        return lo, hi

    def _declared_dims(self, name: str):
        name = name.upper()
        if name in self.ann_dims:
            return self.ann_dims[name]
        if self.caller_table is not None:
            info = self.caller_table.declared(name)
            if info is not None:
                return info.dims
        return None

    def _is_known_array(self, name: str) -> bool:
        dims = self._declared_dims(name)
        return dims is not None

    def _array_rank(self, name: str) -> int:
        dims = self._declared_dims(name)
        return len(dims) if dims else 1

    # -- expressions -------------------------------------------------------
    def _expr(self, e: Optional[fast.Expr],
              pre: List[fast.Stmt]) -> fast.Expr:
        """Translate an annotation expression, appending capture writes for
        ``unknown`` occurrences to ``pre``."""
        if e is None:
            raise AnnotationError("missing expression")
        if isinstance(e, aast.Unknown):
            return self._lower_unknown(e, pre)
        if isinstance(e, aast.Unique):
            return self._lower_unique(e, pre)
        if isinstance(e, fast.Var):
            name = e.name.upper()
            if name in self.scalar_bind:
                return self.scalar_bind[name]
            if name in self.array_bind:
                return fast.Var(self.array_bind[name].name)
            return fast.Var(self.local_rename.get(name, name))
        if isinstance(e, fast.ArrayRef):
            return self._map_array_ref(e.name.upper(), e.subs, pre)
        if isinstance(e, fast.FuncRef):
            return fast.FuncRef(e.name, tuple(self._expr(a, pre)
                                              for a in e.args))
        if isinstance(e, fast.BinOp):
            return fast.BinOp(e.op, self._expr(e.left, pre),
                              self._expr(e.right, pre))
        if isinstance(e, fast.UnOp):
            return fast.UnOp(e.op, self._expr(e.operand, pre))
        if isinstance(e, fast.RangeExpr):
            lo = self._expr(e.lo, pre) if e.lo is not None else None
            hi = self._expr(e.hi, pre) if e.hi is not None else None
            return fast.RangeExpr(lo, hi)
        return e  # literals

    def _map_array_ref(self, name: str, subs: Tuple[fast.Expr, ...],
                       pre: List[fast.Stmt]) -> fast.Expr:
        """Translate one array reference, applying formal bindings.

        Subscript translation is idempotent for generated loop variables,
        so callers may pass a mixture of raw annotation subscripts and
        already-generated ``Z<k>$A<site>`` variables.  A region subscript
        that reaches a bound formal is materialized against the formal's
        declared extent and offset into the actual's index space.
        """
        subs = tuple(self._expr(x, pre) for x in subs)
        if name in self.array_bind:
            binding = self.array_bind[name]
            if self.pattern_mode:
                return fast.ArrayRef(binding.name, subs)
            fdims = self.ann_dims[name]
            mapped: List[fast.Expr] = []
            for k, sub in enumerate(subs):
                b = binding.base[k]
                mapped.append(self._offset_binding_sub(name, fdims, k,
                                                       sub, b))
            mapped.extend(binding.trailing)
            return fast.ArrayRef(binding.name, tuple(mapped))
        if name in self.scalar_bind:
            raise AnnotationError(
                f"{self.ann.name}: scalar formal {name} used with "
                f"subscripts")
        return fast.ArrayRef(self.local_rename.get(name, name), subs)

    def _offset_binding_sub(self, formal: str, fdims, k: int,
                            sub: fast.Expr, b: fast.Expr) -> fast.Expr:
        def offset(e: fast.Expr) -> fast.Expr:
            if b == fast.IntLit(1):
                return e
            return fast.BinOp("+", e, fast.BinOp(
                "-", b, fast.IntLit(1)))

        if isinstance(sub, fast.RangeExpr):
            lo = sub.lo
            hi = sub.hi
            # materialize missing bounds from the formal's declared dims,
            # translating them into caller terms (they usually mention
            # other formals, e.g. dimension M1[L,M])
            if lo is None:
                lo = self._expr(fdims[k].lower, [])
            if hi is None:
                if fdims[k].upper is None:
                    raise AnnotationError(
                        f"{self.ann.name}: region on assumed-size "
                        f"dimension of formal {formal}")
                hi = self._expr(fdims[k].upper, [])
            return fast.RangeExpr(offset(lo), offset(hi))
        return offset(sub)

    def _lower_unknown(self, e: aast.Unknown,
                       pre: List[fast.Stmt]) -> fast.Expr:
        self.unknown_counter += 1
        name = self._suffix(f"GU{self.unknown_counter}")
        size = max(1, len(e.args))
        self.decls.append(fast.TypeDecl(
            "DOUBLE PRECISION",
            [fast.Entity(name, (fast.Dim.upto(fast.IntLit(size)),))]))
        self.captures.append(name)
        for k, arg in enumerate(e.args, start=1):
            pre.append(fast.Assign(fast.ArrayRef(name, (fast.IntLit(k),)),
                                   self._expr(arg, pre)))
        return fast.ArrayRef(name, (fast.IntLit(1),))

    def _lower_unique(self, e: aast.Unique,
                      pre: List[fast.Stmt]) -> fast.Expr:
        if not e.args:
            raise AnnotationError("unique() needs at least one operand")
        base = self.opts.unique_base
        n = len(e.args)
        total: Optional[fast.Expr] = None
        for i, arg in enumerate(e.args):
            translated = self._expr(arg, pre)
            weight = base ** (n - 1 - i)
            term = translated if weight == 1 else fast.BinOp(
                "*", fast.IntLit(weight), translated)
            total = term if total is None else fast.BinOp("+", total, term)
        assert total is not None
        return total


def translate_call(ann: aast.ASubroutine,
                   actuals: Sequence[fast.Expr],
                   caller_table: Optional[SymbolTable],
                   site_id: int,
                   opts: Optional[TranslateOptions] = None,
                   pattern_mode: bool = False) -> Translation:
    """Instantiate ``ann`` for a call with ``actuals`` at ``site_id``.

    With ``pattern_mode`` the actuals are ignored and formals become
    ``PAT$`` placeholders (the reverse inliner's template).
    """
    return _Translator(ann, actuals, caller_table, site_id,
                       opts or TranslateOptions(), pattern_mode).run()
