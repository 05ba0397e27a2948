"""Typed AST for the Fortran 77 subset.

All nodes are dataclasses with structural equality, which the reverse
inliner's pattern matcher and the dependence analyzer's expression
comparisons rely on.  Expressions are immutable values: every
:class:`Expr` class is slotted (no per-node ``__dict__``) and no field of
an expression is assigned after construction, so one expression object
may appear in many places — in a statement and its clone, in a callee and
its inlined copy — and a rewrite replaces a node instead of editing it.
Statements, declarations and units stay mutable (inliners edit them in
place, and a loop's ``origin`` is a stamp that is not a field).

:func:`clone` is the one cloning mechanism: it copies every statement,
declaration, unit and ``list``, carrying each one's whole instance
``__dict__`` — so non-field metadata (a loop's ``origin``) travels with
it — and shares every expression, atom (``str``/``int``/``float``/
``bool``/``None``) and tuple of shared items.  :func:`map_expr`,
:func:`map_stmt_exprs` and :func:`map_stmts` copy on change: a node or
statement list nothing under which changed comes back as the same object,
and only the path above a replacement is rebuilt.

Expression references to a name with an argument list are parsed as
:class:`ArrayRef`; the resolution pass in :mod:`repro.fortran.symbols`
rewrites them into :class:`FuncRef` when the name denotes an intrinsic or a
user function.  Code that runs after resolution may therefore assume the
distinction is accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expressions."""

    __slots__ = ()


@dataclass(eq=True, slots=True)
class IntLit(Expr):
    value: int


@dataclass(eq=True, slots=True)
class RealLit(Expr):
    value: float
    #: 'REAL' or 'DOUBLE' — controls the D/E exponent letter when unparsing
    kind: str = "REAL"
    #: original spelling, kept so unparse(parse(x)) == x for literals; a
    #: spelling cache only, so it does not participate in equality
    text: Optional[str] = field(default=None, compare=False)


@dataclass(eq=True, slots=True)
class StringLit(Expr):
    value: str


@dataclass(eq=True, slots=True)
class LogicalLit(Expr):
    value: bool


@dataclass(eq=True, slots=True)
class Var(Expr):
    name: str


@dataclass(eq=True, slots=True)
class ArrayRef(Expr):
    name: str
    subs: Tuple[Expr, ...]


@dataclass(eq=True, slots=True)
class FuncRef(Expr):
    name: str
    args: Tuple[Expr, ...]


@dataclass(eq=True, slots=True)
class BinOp(Expr):
    """Binary operation.  ``op`` uses canonical spellings:
    ``+ - * / ** // == /= < <= > >= .AND. .OR. .EQV. .NEQV.``"""

    op: str
    left: Expr
    right: Expr


@dataclass(eq=True, slots=True)
class UnOp(Expr):
    """Unary operation: ``-``, ``+`` or ``.NOT.``."""

    op: str
    operand: Expr


@dataclass(eq=True, slots=True)
class AltReturn(Expr):
    """An alternate-return actual argument ``*label`` in a CALL.

    Only legal in CALL argument lists; the matching formal is ``*`` and a
    ``RETURN n`` in the callee jumps to the n-th such label.  Dependence
    analysis treats a call carrying one as opaque control flow.
    """

    target: int


@dataclass(eq=True, slots=True)
class RangeExpr(Expr):
    """An array-section triplet ``lo:hi[:step]``.

    Fortran 77 proper has no sections; this node appears only in subscript
    positions of code generated from annotations (the Fig-12 language allows
    Fortran 90 regions) before region lowering expands it into loops, and in
    DATA-style implied bounds.
    """

    lo: Optional[Expr]
    hi: Optional[Expr]
    step: Optional[Expr] = None


#: expression node types whose children are themselves expressions (the
#: annotation language registers its own operators here)
_EXPR_CHILD_FIELDS = {
    ArrayRef: ("subs",),
    FuncRef: ("args",),
    BinOp: ("left", "right"),
    UnOp: ("operand",),
    RangeExpr: ("lo", "hi", "step"),
}


def walk_expr(e: Expr) -> Iterator[Expr]:
    """Yield ``e`` and every sub-expression, preorder (one frame, however
    deep the tree)."""
    stack = [e]
    pop, push = stack.pop, stack.append
    while stack:
        e = pop()
        yield e
        cls = e.__class__
        if cls is BinOp:
            push(e.right)
            push(e.left)
        elif cls is ArrayRef:
            stack.extend(reversed(e.subs))
        elif cls is FuncRef:
            stack.extend(reversed(e.args))
        elif cls is UnOp:
            push(e.operand)
        elif cls in _EXPR_CHILD_FIELDS:
            for name in reversed(_EXPR_CHILD_FIELDS[cls]):
                child = getattr(e, name)
                if child.__class__ is tuple:
                    stack.extend(reversed(child))
                elif child is not None:
                    push(child)


def map_exprs(items: Tuple[Expr, ...],
              fn: Callable[[Expr], Optional[Expr]]) -> Tuple[Expr, ...]:
    """``items`` mapped by :func:`map_expr`; ``items`` itself when no
    item changed."""
    mapped = [map_expr(x, fn) for x in items]
    for old, new in zip(items, mapped):
        if old is not new:
            return tuple(mapped)
    return items


def map_expr(e: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Rewrite ``e`` bottom-up, replacing nodes for which ``fn`` returns
    a non-None expression.  ``fn`` is applied to each node *after* its
    children have been rewritten; a node none of whose children changed
    is passed (and, when ``fn`` keeps it, returned) as the same object."""
    cls = e.__class__
    if cls is BinOp:
        left, right = map_expr(e.left, fn), map_expr(e.right, fn)
        if left is not e.left or right is not e.right:
            e = BinOp(e.op, left, right)
    elif cls is ArrayRef:
        subs = map_exprs(e.subs, fn)
        if subs is not e.subs:
            e = ArrayRef(e.name, subs)
    elif cls is FuncRef:
        args = map_exprs(e.args, fn)
        if args is not e.args:
            e = FuncRef(e.name, args)
    elif cls is UnOp:
        operand = map_expr(e.operand, fn)
        if operand is not e.operand:
            e = UnOp(e.op, operand)
    elif cls is RangeExpr:
        lo = map_expr(e.lo, fn) if e.lo is not None else None
        hi = map_expr(e.hi, fn) if e.hi is not None else None
        step = map_expr(e.step, fn) if e.step is not None else None
        if lo is not e.lo or hi is not e.hi or step is not e.step:
            e = RangeExpr(lo, hi, step)
    out = fn(e)
    return e if out is None else out


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class for executable statements.

    Every statement carries an optional numeric ``label`` and a list of
    free-form comment directives (currently unused placeholders — OpenMP
    is modelled structurally via :class:`OmpParallelDo`).
    """

    __slots__ = ()


@dataclass(eq=True)
class Assign(Stmt):
    target: Union[Var, ArrayRef]
    value: Expr
    label: Optional[int] = None


@dataclass(eq=True)
class IfBlock(Stmt):
    """Block IF.  ``arms`` is a list of (condition, body); the final arm has
    condition ``None`` when an ELSE is present.  A one-armed IfBlock whose
    body is a single simple statement unparses as a logical IF."""

    arms: List[Tuple[Optional[Expr], List[Stmt]]]
    label: Optional[int] = None


@dataclass(eq=True)
class DoLoop(Stmt):
    var: str
    start: Expr
    stop: Expr
    step: Optional[Expr]
    body: List[Stmt]
    label: Optional[int] = None
    #: label of the terminating statement for classic ``DO 200 I=...`` form;
    #: None means DO ... ENDDO
    term_label: Optional[int] = None


@dataclass(eq=True)
class CallStmt(Stmt):
    name: str
    args: Tuple[Expr, ...]
    label: Optional[int] = None


@dataclass(eq=True)
class Goto(Stmt):
    target: int
    label: Optional[int] = None


@dataclass(eq=True)
class ComputedGoto(Stmt):
    """``GO TO (l1, l2, ...), index``.  An index value outside
    ``1..len(targets)`` falls through to the next statement (F77 rules)."""

    targets: Tuple[int, ...]
    index: Expr
    label: Optional[int] = None


@dataclass(eq=True)
class LabelAssign(Stmt):
    """``ASSIGN label TO var`` — stores a statement label in an integer
    variable for a later assigned GOTO."""

    target_label: int
    var: str
    label: Optional[int] = None


@dataclass(eq=True)
class AssignedGoto(Stmt):
    """``GO TO var [, (l1, l2, ...)]``.  ``targets`` may be empty when the
    source omits the label list, in which case the jump target set is the
    whole unit — unanalyzable control flow."""

    var: str
    targets: Tuple[int, ...] = ()
    label: Optional[int] = None


@dataclass(eq=True)
class Continue(Stmt):
    label: Optional[int] = None


@dataclass(eq=True)
class Format(Continue):
    """``FORMAT spec``: non-executable, kept only so the labelled format
    an I/O statement names survives to the output.  ``spec`` is the
    condensed text after the keyword, re-emitted verbatim; every analysis
    and both backends see a CONTINUE."""

    spec: str = ""


@dataclass(eq=True)
class Return(Stmt):
    label: Optional[int] = None
    #: alternate-return selector expression (``RETURN n``), None for a
    #: plain RETURN
    alt: Optional[Expr] = None


@dataclass(eq=True)
class EntryStmt(Stmt):
    """``ENTRY name(params)`` — a secondary entry point into the enclosing
    unit.  Kept as an inert body marker; any unit containing one is treated
    as opaque by side-effect summaries."""

    name: str
    params: Tuple[str, ...] = ()
    label: Optional[int] = None


@dataclass(eq=True)
class Opaque(Stmt):
    """A statement the tolerant frontend accepted but could not lower.

    ``text`` is the condensed source text (re-emitted verbatim by the
    unparser), ``reason`` a stable short code naming why lowering failed
    (the full diagnostic lives in the frontend's diagnostics list, not
    here, so reparsing round-trips).  Analyses must treat an Opaque
    statement as unanalyzable: it may read or write anything.
    """

    text: str
    reason: str = "unclassified"
    label: Optional[int] = None


@dataclass(eq=True)
class Stop(Stmt):
    message: Optional[str] = None
    label: Optional[int] = None


@dataclass(eq=True)
class IoStmt(Stmt):
    """WRITE/PRINT/READ.  The control list (unit, format) is kept as raw
    text; the data items are real expressions so analyses can see the
    variables read or written by I/O."""

    kind: str  # 'WRITE' | 'PRINT' | 'READ'
    control: str
    items: Tuple[Expr, ...]
    label: Optional[int] = None


@dataclass(eq=True)
class OmpParallelDo(Stmt):
    """An OpenMP-parallelized DO loop.

    Produced by the parallelizer; unparses to ``!$OMP PARALLEL DO`` /
    ``!$OMP END PARALLEL DO`` around the loop.  ``private``, ``reductions``
    and ``schedule`` model the clause set Polaris emits.
    """

    loop: DoLoop
    private: Tuple[str, ...] = ()
    #: (operator, variable) pairs, e.g. ("+", "SUM1")
    reductions: Tuple[Tuple[str, str], ...] = ()
    schedule: Optional[str] = None
    label: Optional[int] = None


@dataclass(eq=True)
class TaggedBlock(Stmt):
    """A code segment produced by annotation-based inlining.

    ``callee`` names the annotated subroutine, ``site_id`` uniquely
    identifies the call site, and ``actuals`` records the original actual
    argument expressions (the reverse inliner *re-derives* actuals by
    pattern matching and cross-checks them against these).
    """

    callee: str
    site_id: int
    actuals: Tuple[Expr, ...]
    body: List[Stmt]
    label: Optional[int] = None


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(eq=True)
class Dim:
    """One array dimension ``lower:upper``; ``upper is None`` encodes an
    assumed-size ``*`` final dimension."""

    lower: Expr
    upper: Optional[Expr]

    @staticmethod
    def upto(upper: Optional[Expr]) -> "Dim":
        return Dim(IntLit(1), upper)


@dataclass(eq=True)
class Entity:
    """A declared name with optional dimensions / character length."""

    name: str
    dims: Optional[Tuple[Dim, ...]] = None
    char_len: Optional[int] = None


class Decl:
    """Base class for specification statements."""

    __slots__ = ()


@dataclass(eq=True)
class TypeDecl(Decl):
    typename: str  # 'INTEGER' | 'REAL' | 'DOUBLE PRECISION' | 'LOGICAL' | 'CHARACTER'
    entities: List[Entity]
    char_len: Optional[int] = None  # CHARACTER*n default length


@dataclass(eq=True)
class DimensionDecl(Decl):
    entities: List[Entity]


@dataclass(eq=True)
class CommonDecl(Decl):
    block: str  # '' for blank common
    entities: List[Entity]


@dataclass(eq=True)
class ParameterDecl(Decl):
    assignments: List[Tuple[str, Expr]]


@dataclass(eq=True)
class DataDecl(Decl):
    #: parallel lists of targets and value expressions (repeat factors
    #: expanded by the parser: ``DATA A /3*0.0/`` becomes three values)
    targets: List[Expr]
    values: List[Expr]


@dataclass(eq=True)
class EquivalenceDecl(Decl):
    """``EQUIVALENCE (A, B(3)), (C, D)`` — storage association groups.

    Each group is a tuple of Var/ArrayRef references sharing storage.  The
    dependence analyzer refuses to parallelize loops touching any
    equivalenced name (aliasing defeats the per-array dependence model).
    """

    groups: List[Tuple[Expr, ...]]


@dataclass(eq=True)
class SaveDecl(Decl):
    names: List[str]


@dataclass(eq=True)
class ExternalDecl(Decl):
    names: List[str]


@dataclass(eq=True)
class IntrinsicDecl(Decl):
    names: List[str]


@dataclass(eq=True)
class ImplicitDecl(Decl):
    #: only 'NONE' is given special meaning; other texts are preserved
    text: str


# ---------------------------------------------------------------------------
# Program units
# ---------------------------------------------------------------------------

@dataclass(eq=True)
class ProgramUnit:
    kind: str  # 'PROGRAM' | 'SUBROUTINE' | 'FUNCTION'
    name: str
    params: List[str]
    decls: List[Decl]
    body: List[Stmt]
    #: declared result type for FUNCTION units ('' = implicit)
    result_type: str = ""

    def find_decls(self, cls) -> List[Decl]:
        return [d for d in self.decls if isinstance(d, cls)]


@dataclass(eq=True)
class SourceFile:
    units: List[ProgramUnit]
    filename: str = "<string>"

    def unit(self, name: str) -> ProgramUnit:
        for u in self.units:
            if u.name == name.upper():
                return u
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def stmt_children(s: Stmt) -> List[List[Stmt]]:
    """Return the nested statement lists of ``s`` (possibly empty)."""
    if isinstance(s, DoLoop):
        return [s.body]
    if isinstance(s, IfBlock):
        return [body for _, body in s.arms]
    if isinstance(s, OmpParallelDo):
        return [[s.loop]]
    if isinstance(s, TaggedBlock):
        return [s.body]
    return []


def walk_stmts(body: Sequence[Stmt]) -> Iterator[Stmt]:
    """Yield every statement in ``body``, preorder, recursing into blocks."""
    for s in body:
        yield s
        for child in stmt_children(s):
            yield from walk_stmts(child)


def stmt_exprs(s: Stmt) -> List[Expr]:
    """Return the top-level expressions of a single statement (not
    recursing into nested statements)."""
    if isinstance(s, Assign):
        return [s.target, s.value]
    if isinstance(s, IfBlock):
        return [cond for cond, _ in s.arms if cond is not None]
    if isinstance(s, DoLoop):
        out = [s.start, s.stop]
        if s.step is not None:
            out.append(s.step)
        return out
    if isinstance(s, CallStmt):
        return list(s.args)
    if isinstance(s, IoStmt):
        return list(s.items)
    if isinstance(s, TaggedBlock):
        return list(s.actuals)
    if isinstance(s, ComputedGoto):
        return [s.index]
    if isinstance(s, AssignedGoto):
        # expose the read of the label variable (a fresh Var node: equality
        # is structural, so analyses see it as an ordinary scalar read)
        return [Var(s.var)]
    if isinstance(s, Return) and s.alt is not None:
        return [s.alt]
    return []


def walk_all_exprs(body: Sequence[Stmt]) -> Iterator[Expr]:
    """Yield every expression node appearing anywhere in ``body``."""
    for s in walk_stmts(body):
        for e in stmt_exprs(s):
            yield from walk_expr(e)


def map_stmts(body: List[Stmt],
              fn: Callable[[Stmt], Optional[List[Stmt]]]) -> List[Stmt]:
    """Rebuild a statement list, replacing statements for which ``fn``
    returns a replacement list (None, or ``[s]`` itself, keeps the
    statement).  ``fn`` is applied after children have been rewritten;
    the callback may expand a statement into several or delete it (empty
    list).  A block none of whose statements changed is kept as the same
    object, and so is ``body`` itself when nothing in it changed."""
    out: List[Stmt] = []
    changed = False
    for orig in body:
        s = orig
        cls = s.__class__
        if cls is DoLoop:
            inner = map_stmts(s.body, fn)
            if inner is not s.body:
                s = copy_loop_meta(s, DoLoop(s.var, s.start, s.stop, s.step,
                                             inner, s.label, s.term_label))
        elif cls is IfBlock:
            arms = [(c, map_stmts(b, fn)) for c, b in s.arms]
            if any(b is not old for (_, b), (_, old) in zip(arms, s.arms)):
                s = IfBlock(arms, s.label)
        elif cls is OmpParallelDo:
            inner = map_stmts([s.loop], fn)
            if len(inner) != 1 or inner[0].__class__ is not DoLoop:
                out.extend(inner)
                changed = True
                continue
            if inner[0] is not s.loop:
                s = OmpParallelDo(inner[0], s.private, s.reductions,
                                  s.schedule, s.label)
        elif cls is TaggedBlock:
            inner = map_stmts(s.body, fn)
            if inner is not s.body:
                s = TaggedBlock(s.callee, s.site_id, s.actuals, inner,
                                s.label)
        replaced = fn(s)
        if replaced is None or (len(replaced) == 1 and replaced[0] is s):
            out.append(s)
            changed = changed or s is not orig
        else:
            out.extend(replaced)
            changed = True
    return out if changed else body


def map_stmt_exprs(body: List[Stmt],
                   fn: Callable[[Expr], Optional[Expr]]) -> List[Stmt]:
    """Rewrite every expression in ``body`` with :func:`map_expr`; a
    statement none of whose expressions changed is kept."""

    def rewrite(s: Stmt) -> Optional[List[Stmt]]:
        cls = s.__class__
        if cls is Assign:
            tgt = map_expr(s.target, fn)
            if tgt.__class__ is not Var and tgt.__class__ is not ArrayRef:
                tgt = s.target  # refuse to rewrite targets into non-lvalues
            value = map_expr(s.value, fn)
            if tgt is s.target and value is s.value:
                return None
            return [Assign(tgt, value, s.label)]
        if cls is IfBlock:
            arms = [(map_expr(c, fn) if c is not None else None, b)
                    for c, b in s.arms]
            if all(c is old for (c, _), (old, _) in zip(arms, s.arms)):
                return None
            return [IfBlock(arms, s.label)]
        if cls is DoLoop:
            start, stop = map_expr(s.start, fn), map_expr(s.stop, fn)
            step = map_expr(s.step, fn) if s.step is not None else None
            if start is s.start and stop is s.stop and step is s.step:
                return None
            return [copy_loop_meta(s, DoLoop(s.var, start, stop, step,
                                             s.body, s.label, s.term_label))]
        if cls is CallStmt:
            args = map_exprs(s.args, fn)
            return None if args is s.args else [
                CallStmt(s.name, args, s.label)]
        if cls is IoStmt:
            items = map_exprs(s.items, fn)
            return None if items is s.items else [
                IoStmt(s.kind, s.control, items, s.label)]
        if cls is ComputedGoto:
            index = map_expr(s.index, fn)
            return None if index is s.index else [
                ComputedGoto(s.targets, index, s.label)]
        return None

    return map_stmts(body, rewrite)


_ATOMS = frozenset((str, int, float, bool, type(None)))
#: what :func:`clone` hands back as it is: atoms and expressions
_SHARED = _ATOMS | frozenset((IntLit, RealLit, StringLit, LogicalLit, Var,
                              ArrayRef, FuncRef, BinOp, UnOp, AltReturn,
                              RangeExpr))


def clone(node):
    """Copy an AST node (or list/tuple of nodes): statements,
    declarations, units and lists are rebuilt, expressions and atoms are
    shared (see the module docstring).  One Python frame per statement
    nesting level; an expression costs none."""
    cls = node.__class__
    if cls in _SHARED:
        return node
    if cls is list:
        return [clone(x) for x in node]
    if cls is tuple:
        items = [clone(x) for x in node]
        for old, new in zip(node, items):
            if old is not new:
                return tuple(items)
        return node
    if isinstance(node, Expr):
        return node  # an expression class defined outside this module
    new = cls.__new__(cls)
    fields = new.__dict__
    for name, value in node.__dict__.items():
        fields[name] = value if value.__class__ in _SHARED else clone(value)
    return new


def copy_loop_meta(old: DoLoop, new: DoLoop) -> DoLoop:
    """Carry the non-field loop metadata (the ``origin`` identity used for
    Table II accounting) across a structural rebuild."""
    if hasattr(old, "origin"):
        new.origin = old.origin  # type: ignore[attr-defined]
    return new


def count_statements(body: Sequence[Stmt]) -> int:
    """Number of statements, the metric Polaris' inlining heuristic uses."""
    return sum(1 for _ in walk_stmts(body))
