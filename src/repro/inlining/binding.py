"""Formal/actual binding for conventional inlining.

This module encodes how a Polaris-style textual inliner instantiates a
callee body at a call site — including, deliberately, the two behaviours
the paper identifies as sources of lost parallelism:

* **indirect actuals substitute forward** into the callee's subscripts:
  binding ``X2`` to ``T(IX(7)+1)`` turns ``X2(I)`` into ``T(IX(7)+I)`` — a
  subscripted subscript (Figures 2-3);
* **mismatched array shapes linearize**: when the formal's shape cannot be
  aligned with the actual's, the *caller's array is redeclared
  one-dimensional* ("without any explicit shape information", Figures 4-5)
  and every reference to it in the whole caller is rewritten through the
  column-major linearization formula.  With symbolic extents this
  produces index*symbol products that no dependence test can analyze.

Bindings that cannot be implemented faithfully raise
:class:`~repro.errors.InlineError`; the driver leaves such sites as calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.symbolic import exprs_equivalent
from repro.errors import InlineError
from repro.fortran import ast
from repro.fortran.symbols import SymbolTable, VarInfo


@dataclass
class LinearBinding:
    """Bind array formal ``formal`` to a linearized view of caller array
    ``actual_name``: ``F(i1..ir)`` becomes
    ``A(base_offset + lin(i1..ir) )`` with the column-major formula over
    the *formal's* declared dims (rewritten into caller terms)."""

    actual_name: str
    #: element offset of the actual reference within A, 0-based, in caller
    #: terms
    base_offset: ast.Expr
    #: formal dims, already rewritten into caller terms
    formal_dims: Tuple[ast.Dim, ...]


@dataclass
class BindingPlan:
    #: formal name -> replacement expression (scalars and array elements)
    scalar_map: Dict[str, ast.Expr] = field(default_factory=dict)
    #: formal array name -> (caller array, base subscripts, formal lower
    #: bounds): F(i1..ir) rewrites to A(base_k + (i_k - lower_k))
    array_direct: Dict[str, Tuple[str, Tuple[ast.Expr, ...],
                                  Tuple[ast.Expr, ...]]] = \
        field(default_factory=dict)
    #: formal array name -> linearized binding
    array_linear: Dict[str, LinearBinding] = field(default_factory=dict)
    #: temp copy-in statements to emit before the inlined body
    pre: List[ast.Stmt] = field(default_factory=list)
    #: copy-out statements to emit after the inlined body
    post: List[ast.Stmt] = field(default_factory=list)
    #: caller arrays that must be relinearized unit-wide
    linearize_caller: Set[str] = field(default_factory=set)
    #: declarations for generated temporaries
    temp_decls: List[ast.Decl] = field(default_factory=list)


def element_offset(subs: Sequence[ast.Expr],
                   dims: Sequence[ast.Dim]) -> ast.Expr:
    """0-based column-major element offset of ``A(subs)`` given declared
    ``dims``.  Fortran stores column-major: offset = (s1-l1) +
    (s2-l2)*D1 + (s3-l3)*D1*D2 + ..."""
    if len(subs) != len(dims):
        raise InlineError("subscript rank mismatch in offset computation")
    total: Optional[ast.Expr] = None
    stride: Optional[ast.Expr] = None
    for sub, dim in zip(subs, dims):
        delta: ast.Expr = ast.BinOp("-", sub, dim.lower)
        term = delta if stride is None else ast.BinOp(
            "*", delta, stride)
        total = term if total is None else ast.BinOp("+", total, term)
        extent = _extent(dim)
        if extent is None:
            stride = None  # assumed-size: only legal for the last dim
        else:
            stride = extent if stride is None else ast.BinOp(
                "*", stride, extent)
    assert total is not None
    return total


def linear_index(subs: Sequence[ast.Expr],
                 dims: Sequence[ast.Dim]) -> ast.Expr:
    """1-based linearized subscript: ``element_offset + 1``."""
    return ast.BinOp("+", element_offset(subs, dims), ast.IntLit(1))


def _extent(dim: ast.Dim) -> Optional[ast.Expr]:
    if dim.upper is None:
        return None
    if dim.lower == ast.IntLit(1):
        return dim.upper
    return ast.BinOp("+", ast.BinOp("-", dim.upper, dim.lower),
                     ast.IntLit(1))


def total_size(dims: Sequence[ast.Dim]) -> Optional[ast.Expr]:
    total: Optional[ast.Expr] = None
    for d in dims:
        e = _extent(d)
        if e is None:
            return None
        total = e if total is None else ast.BinOp("*", total, e)
    return total


def _dims_congruent(a: Sequence[ast.Dim], b: Sequence[ast.Dim],
                    ignore_last: bool = True) -> bool:
    """Shapes produce the same memory layout: equal extents on every
    dimension (the last may differ/assume-size when ``ignore_last``)."""
    if len(a) != len(b):
        return False
    last = len(a) - 1
    for k, (da, db) in enumerate(zip(a, b)):
        if k == last and ignore_last:
            continue
        ea, eb = _extent(da), _extent(db)
        if ea is None or eb is None:
            return False
        if not exprs_equivalent(ea, eb):
            return False
    return True


def plan_bindings(callee_name: str,
                  formals: Sequence[str],
                  actuals: Sequence[ast.Expr],
                  callee_table: SymbolTable,
                  caller_table: SymbolTable,
                  rename: Dict[str, str],
                  site_id: int) -> BindingPlan:
    """Compute the binding plan for one call site.

    ``rename`` maps callee local names to their site-unique caller names;
    formal dims mentioning callee locals/formals are rewritten through it
    (and through scalar bindings) into caller terms.
    """
    if len(formals) != len(actuals):
        raise InlineError(
            f"{callee_name}: call passes {len(actuals)} arguments for "
            f"{len(formals)} formals")
    plan = BindingPlan()
    scalar_formal_map: Dict[str, ast.Expr] = {}

    # first pass: scalars (their values may appear in array dim exprs)
    for formal, actual in zip(formals, actuals):
        finfo = callee_table.info(formal)
        if finfo.is_array:
            continue
        _bind_scalar(plan, formal, finfo, actual, caller_table, site_id)
        scalar_formal_map[formal.upper()] = plan.scalar_map[formal.upper()]

    def to_caller_terms(e: ast.Expr) -> ast.Expr:
        def rewrite(n: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(n, ast.Var):
                u = n.name.upper()
                if u in scalar_formal_map:
                    return scalar_formal_map[u]
                if u in rename:
                    return ast.Var(rename[u])
            elif isinstance(n, (ast.ArrayRef, ast.FuncRef)) \
                    and n.name.upper() in rename:
                args = n.subs if isinstance(n, ast.ArrayRef) else n.args
                return ast.ArrayRef(rename[n.name.upper()], args)
            return None
        return ast.map_expr(e, rewrite)

    # second pass: arrays
    for formal, actual in zip(formals, actuals):
        finfo = callee_table.info(formal)
        if not finfo.is_array:
            continue
        fdims = tuple(ast.Dim(to_caller_terms(d.lower),
                              to_caller_terms(d.upper)
                              if d.upper is not None else None)
                      for d in finfo.dims)
        _bind_array(plan, formal, fdims, actual, caller_table)
    return plan


def _bind_scalar(plan: BindingPlan, formal: str, finfo: VarInfo,
                 actual: ast.Expr, caller_table: SymbolTable,
                 site_id: int) -> None:
    formal = formal.upper()
    if isinstance(actual, ast.Var) and not caller_table.is_array(actual.name):
        plan.scalar_map[formal] = actual
        return
    if isinstance(actual, ast.ArrayRef):
        # by-reference element binding: safe as long as nothing the
        # subscripts mention can change inside the callee; the driver
        # verified the callee is call-free, so only writes to the names
        # themselves matter — conservatively require the callee not write
        # the formal when subscripts are non-trivial (checked by caller via
        # copy-in/copy-out fallback below when needed)
        plan.scalar_map[formal] = actual
        return
    # expression actual: copy into a temp (no copy-out: writing to an
    # expression argument is non-conforming Fortran anyway)
    tmp = f"{formal}$A{site_id}"
    plan.pre.append(ast.Assign(ast.Var(tmp), actual))
    plan.scalar_map[formal] = ast.Var(tmp)
    plan.temp_decls.append(ast.TypeDecl(finfo.typename,
                                        [ast.Entity(tmp)]))


def _bind_array(plan: BindingPlan, formal: str, fdims: Tuple[ast.Dim, ...],
                actual: ast.Expr, caller_table: SymbolTable) -> None:
    formal = formal.upper()
    if isinstance(actual, ast.Var):
        ainfo = caller_table.info(actual.name)
        if not ainfo.is_array:
            raise InlineError(
                f"array formal {formal} bound to scalar {actual.name}")
        adims = ainfo.dims
        if len(fdims) == len(adims) and _dims_congruent(fdims, adims):
            base = tuple(d.lower for d in adims)
            lowers = tuple(d.lower for d in fdims)
            plan.array_direct[formal] = (ainfo.name, base, lowers)
            return
        plan.array_linear[formal] = LinearBinding(
            ainfo.name, ast.IntLit(0), fdims)
        plan.linearize_caller.add(ainfo.name)
        return
    if isinstance(actual, ast.ArrayRef):
        ainfo = caller_table.info(actual.name)
        if ainfo.dims is None:
            raise InlineError(
                f"array formal {formal} bound to element of scalar")
        adims = ainfo.dims
        subs = actual.subs
        if len(subs) != len(adims):
            raise InlineError(
                f"element actual {actual.name} has rank {len(subs)} but "
                f"declared rank {len(adims)}")
        if len(fdims) == len(adims) == 1:
            # 1-D view into 1-D array: pure offset binding (Figure 2-3)
            plan.array_direct[formal] = (ainfo.name, (subs[0],),
                                         (fdims[0].lower,))
            return
        if len(fdims) == len(adims) and _dims_congruent(fdims, adims) \
                and all(exprs_equivalent(s, d.lower)
                        for s, d in zip(subs[:-1], adims[:-1])):
            # congruent leading dims, offset applies to the last dim only
            base = tuple(d.lower for d in adims[:-1]) + (subs[-1],)
            lowers = tuple(d.lower for d in fdims)
            plan.array_direct[formal] = (ainfo.name, base, lowers)
            return
        plan.array_linear[formal] = LinearBinding(
            ainfo.name, element_offset(subs, adims), fdims)
        plan.linearize_caller.add(ainfo.name)
        return
    raise InlineError(f"array formal {formal} bound to expression")
