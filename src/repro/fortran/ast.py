"""Typed AST for the Fortran 77 subset.

All nodes are frozen-free dataclasses with structural equality, which the
reverse inliner's pattern matcher and the dependence analyzer's expression
comparisons rely on.  :func:`clone` is the one cloning mechanism: a
structural copy that shares atoms (``str``/``int``/``float``/``bool``/
``None``) and rebuilds every ``list``, ``tuple`` and node, carrying each
node's whole instance ``__dict__`` — so non-field metadata (a loop's
``origin``) and ``compare=False`` fields (``RealLit.text``) travel with it.
Aliasing is *not* preserved: a node referenced twice in the original is
two nodes in the copy, the safe side for passes that mutate in place (an
edit through one reference can never show through another).

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


@dataclass(eq=True)
class IntLit(Expr):
    value: int


@dataclass(eq=True)
class RealLit(Expr):
    value: float
    #: 'REAL' or 'DOUBLE' — controls the D/E exponent letter when unparsing
    kind: str = "REAL"
    #: original spelling, kept so unparse(parse(x)) == x for literals; a
    #: spelling cache only, so it does not participate in equality
    text: Optional[str] = field(default=None, compare=False)


@dataclass(eq=True)
class StringLit(Expr):
    value: str


@dataclass(eq=True)
class LogicalLit(Expr):
    value: bool


@dataclass(eq=True)
class Var(Expr):
    name: str


@dataclass(eq=True)
class ArrayRef(Expr):
    name: str
    subs: Tuple[Expr, ...]


@dataclass(eq=True)
class FuncRef(Expr):
    name: str
    args: Tuple[Expr, ...]


@dataclass(eq=True)
class BinOp(Expr):
    """Binary operation.  ``op`` uses canonical spellings:
    ``+ - * / ** // == /= < <= > >= .AND. .OR. .EQV. .NEQV.``"""

    op: str
    left: Expr
    right: Expr


@dataclass(eq=True)
class UnOp(Expr):
    """Unary operation: ``-``, ``+`` or ``.NOT.``."""

    op: str
    operand: Expr


@dataclass(eq=True)
class AltReturn(Expr):
    """An alternate-return actual argument ``*label`` in a CALL.

    Only legal in CALL argument lists; the matching formal is ``*`` and a
    ``RETURN n`` in the callee jumps to the n-th such label.  Dependence
    analysis treats a call carrying one as opaque control flow.
    """

    target: int


@dataclass(eq=True)
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


#: expression node types whose children are themselves expressions
_EXPR_CHILD_FIELDS = {
    ArrayRef: ("subs",),
    FuncRef: ("args",),
    BinOp: ("left", "right"),
    UnOp: ("operand",),
    RangeExpr: ("lo", "hi", "step"),
}


def walk_expr(e: Expr) -> Iterator[Expr]:
    """Yield ``e`` and every sub-expression, preorder."""
    yield e
    fields = _EXPR_CHILD_FIELDS.get(type(e))
    if not fields:
        return
    for name in fields:
        child = getattr(e, name)
        if child is None:
            continue
        if isinstance(child, tuple):
            for sub in child:
                yield from walk_expr(sub)
        else:
            yield from walk_expr(child)


def map_expr(e: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Rebuild ``e`` bottom-up, replacing nodes for which ``fn`` returns
    a non-None expression.  ``fn`` is applied to each node *after* its
    children have been rewritten."""
    if isinstance(e, ArrayRef):
        rebuilt: Expr = ArrayRef(e.name, tuple(map_expr(s, fn) for s in e.subs))
    elif isinstance(e, FuncRef):
        rebuilt = FuncRef(e.name, tuple(map_expr(a, fn) for a in e.args))
    elif isinstance(e, BinOp):
        rebuilt = BinOp(e.op, map_expr(e.left, fn), map_expr(e.right, fn))
    elif isinstance(e, UnOp):
        rebuilt = UnOp(e.op, map_expr(e.operand, fn))
    elif isinstance(e, RangeExpr):
        rebuilt = RangeExpr(
            map_expr(e.lo, fn) if e.lo is not None else None,
            map_expr(e.hi, fn) if e.hi is not None else None,
            map_expr(e.step, fn) if e.step is not None else None,
        )
    else:
        rebuilt = e
    out = fn(rebuilt)
    return rebuilt if out is None else out


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
    returns a replacement list (None keeps the statement).  ``fn`` is
    applied after children have been rewritten; the callback may expand a
    statement into several or delete it (empty list)."""
    out: List[Stmt] = []
    for s in body:
        if isinstance(s, DoLoop):
            old = s
            s = DoLoop(s.var, s.start, s.stop, s.step,
                       map_stmts(s.body, fn), s.label, s.term_label)
            copy_loop_meta(old, s)
        elif isinstance(s, IfBlock):
            s = IfBlock([(c, map_stmts(b, fn)) for c, b in s.arms], s.label)
        elif isinstance(s, OmpParallelDo):
            inner = map_stmts([s.loop], fn)
            if len(inner) == 1 and isinstance(inner[0], DoLoop):
                s = OmpParallelDo(inner[0], s.private, s.reductions,
                                  s.schedule, s.label)
            else:
                out.extend(inner)
                continue
        elif isinstance(s, TaggedBlock):
            s = TaggedBlock(s.callee, s.site_id, s.actuals,
                            map_stmts(s.body, fn), s.label)
        replaced = fn(s)
        if replaced is None:
            out.append(s)
        else:
            out.extend(replaced)
    return out


def map_stmt_exprs(body: List[Stmt],
                   fn: Callable[[Expr], Optional[Expr]]) -> List[Stmt]:
    """Rewrite every expression in ``body`` with :func:`map_expr`."""

    def rewrite(s: Stmt) -> Optional[List[Stmt]]:
        if isinstance(s, Assign):
            tgt = map_expr(s.target, fn)
            if not isinstance(tgt, (Var, ArrayRef)):
                tgt = s.target  # refuse to rewrite targets into non-lvalues
            return [Assign(tgt, map_expr(s.value, fn), s.label)]
        if isinstance(s, IfBlock):
            return [IfBlock(
                [(map_expr(c, fn) if c is not None else None, b)
                 for c, b in s.arms], s.label)]
        if isinstance(s, DoLoop):
            rebuilt = DoLoop(s.var, map_expr(s.start, fn),
                             map_expr(s.stop, fn),
                             map_expr(s.step, fn) if s.step is not None
                             else None,
                             s.body, s.label, s.term_label)
            return [copy_loop_meta(s, rebuilt)]
        if isinstance(s, CallStmt):
            return [CallStmt(s.name, tuple(map_expr(a, fn) for a in s.args),
                             s.label)]
        if isinstance(s, IoStmt):
            return [IoStmt(s.kind, s.control,
                           tuple(map_expr(i, fn) for i in s.items), s.label)]
        if isinstance(s, ComputedGoto):
            return [ComputedGoto(s.targets, map_expr(s.index, fn), s.label)]
        return None

    return map_stmts(body, rewrite)


_ATOMS = frozenset((str, int, float, bool, type(None)))


def clone(node):
    """Structurally copy an AST node (or list/tuple of nodes): atoms are
    shared, everything else is rebuilt (see the module docstring).  One
    Python frame per tree level, so any tree the parser builds clones."""
    cls = node.__class__
    if cls in _ATOMS:
        return node
    if cls is list:
        return [clone(x) for x in node]
    if cls is tuple:
        return tuple([clone(x) for x in node])
    new = cls.__new__(cls)
    fields = new.__dict__
    for name, value in node.__dict__.items():
        fields[name] = value if value.__class__ in _ATOMS else clone(value)
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
