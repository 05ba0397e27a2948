"""Scalar classification, reduction recognition and array kill analysis:
one ordered pass over a loop body.

Given a candidate parallel loop, the parallelizer must decide for every
variable written in the body whether the writes create loop-carried
dependences or whether the variable is privatizable or a reduction:

* a **scalar** is privatizable when, on every execution path through one
  iteration, its first access is a write (``WRITE_FIRST``).  A scalar read
  before any write carries a dependence (``READ_FIRST``) unless it is a
  recognized reduction;
* a **reduction** is a scalar used only in statements of one
  OpenMP-expressible pattern — ``S = S + e`` / ``S = S - e`` (``+``),
  ``S = S * e`` (``*``), ``S = MAX(S, e)`` / ``MIN`` (any argument
  position).  The statements may sit inside conditionals or inner loops;
* an **array** is privatizable when every read in the iteration is covered
  by an earlier *unconditional* write region of the same iteration — the
  classic array kill analysis.  Writes aggregated over inner loops use
  region projection (:mod:`repro.analysis.regions`).

:func:`scan_body` walks the body once, in textual order, and its
:class:`BodyFacts` answers all three.  Array accesses are kept raw and
projected only for the arrays :meth:`BodyFacts.privatizable` is asked
about.  Both kinds of privatization use *lastprivate* semantics: Polaris
"peels the last iteration" (Section III-B4 of the paper) so the
sequential final values survive; our runtime simulator implements the
same contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.regions import Region, projected_region
from repro.analysis.symbolic import from_expr
from repro.fortran import ast
from repro.fortran.symbols import SymbolTable


class ScalarClass(Enum):
    READ_ONLY = "read-only"
    WRITE_FIRST = "write-first"  # privatizable
    READ_FIRST = "read-first"    # loop-carried unless a reduction
    CONDITIONAL_WRITE = "conditional-write"  # written on some paths only;
    # last-value recovery is not computable, so conservatively serial


class _State(Enum):
    UNSEEN = 0
    WRITTEN = 1
    READ_FIRST = 2


_MINMAX = {"MAX": "MAX", "AMAX1": "MAX", "DMAX1": "MAX", "MAX0": "MAX",
           "MIN": "MIN", "AMIN1": "MIN", "DMIN1": "MIN", "MIN0": "MIN"}

#: one array access: (name, is_write, subscripts or None for an
#: unsubscripted whole-array reference, inside an IF arm, the inner DO
#: loops enclosing it, outermost first)
_Event = Tuple[str, bool, Optional[Tuple[ast.Expr, ...]], bool,
               Tuple[ast.DoLoop, ...]]


@dataclass
class BodyFacts:
    """What one iteration of a loop body does to its variables."""

    table: SymbolTable
    #: the class of every scalar accessed in the body
    scalars: Dict[str, ScalarClass] = field(default_factory=dict)
    #: scalars used *only* in consistent reduction statements: {var: op}
    #: with op in '+', '*', 'MAX', 'MIN'
    reductions: Dict[str, str] = field(default_factory=dict)
    #: every array access in textual order (a condition before its arm;
    #: an assignment's value, then the target's subscripts, then the
    #: target)
    events: List[_Event] = field(default_factory=list)

    def privatizable(self, name: str, loop_var: str = "") -> bool:
        """Is array ``name`` privatizable for the loop (index
        ``loop_var``)?  Three conditions, all conservative:

        1. every read is covered by some earlier unconditional write
           region of the same iteration (no cross-iteration flow);
        2. every write is unconditional (otherwise the lastprivate
           copy-out from the final iteration could miss values the
           sequential execution produced earlier);
        3. every write region is invariant in ``loop_var`` (each
           iteration writes the same region, so the peeled last iteration
           reproduces the sequential final state).
        """
        name, loop_var = name.upper(), loop_var.upper()
        info = self.table.info(name)
        killed: List[Region] = []
        for array, is_write, subs, conditional, inner in self.events:
            if array != name:
                continue
            if is_write and conditional:
                return False
            region = (Region.whole_array(info) if subs is None
                      else projected_region(subs, info, inner))
            if is_write:
                if subs is not None and not _invariant(region, loop_var):
                    return False
                killed.append(region)
            elif not any(w.covers(region) for w in killed):
                return False
        return True


def _invariant(region: Region, loop_var: str) -> bool:
    """All bounds known and free of the candidate loop's index."""
    return all(bound is not None and not (
        loop_var and loop_var in bound.names_mentioned())
        for d in region.dims for bound in (d.lo, d.hi))


def scan_body(body: Sequence[ast.Stmt], table: SymbolTable) -> BodyFacts:
    """Scalar classes, reductions and array accesses of ``body`` (one
    loop iteration), from one walk."""
    walk = _Walk(table)
    states: Dict[str, _State] = {}
    walk.body(body, states, False, ())
    facts = BodyFacts(table, events=walk.events)
    for name in walk.reads | walk.writes:
        st = states.get(name, _State.UNSEEN)
        if name not in walk.writes:
            facts.scalars[name] = ScalarClass.READ_ONLY
        elif st is _State.READ_FIRST:
            facts.scalars[name] = ScalarClass.READ_FIRST
        elif st is _State.WRITTEN:
            facts.scalars[name] = ScalarClass.WRITE_FIRST
        else:
            # written only on some paths and never read before the write:
            # lastprivate copy-out from the final iteration would be wrong
            # whenever the final iteration skips the write, so Polaris (and
            # we) keep such loops serial unless the scalar is a reduction
            facts.scalars[name] = ScalarClass.CONDITIONAL_WRITE
    facts.reductions = {v: next(iter(ops))
                        for v, ops in walk.candidates.items()
                        if len(ops) == 1 and v not in walk.touched}
    return facts


def _merge(states: Dict[str, _State],
           paths: List[Dict[str, _State]]) -> None:
    """Set ``states`` to the scalar states after alternative ``paths``:
    read-first on any path wins, written needs every path, anything else
    is unseen."""
    out: Dict[str, _State] = {}
    for k in set().union(*paths):
        vals = {p.get(k, _State.UNSEEN) for p in paths}
        out[k] = (_State.READ_FIRST if _State.READ_FIRST in vals
                  else vals.pop() if len(vals) == 1 else _State.UNSEEN)
    states.clear()
    states.update(out)


class _Walk:
    """The walk's accumulators; scalar states are threaded through the
    calls because IF arms and inner DO bodies each start from a copy."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        #: reduction candidates: {var: ops of its reduction statements}
        self.candidates: Dict[str, Set[str]] = {}
        #: names occurring outside their own reduction statements
        self.touched: Set[str] = set()
        self.events: List[_Event] = []

    def read(self, name: str, states: Dict[str, _State]) -> None:
        self.reads.add(name)
        if states.get(name, _State.UNSEEN) is _State.UNSEEN:
            states[name] = _State.READ_FIRST

    def write(self, name: str, states: Dict[str, _State]) -> None:
        self.writes.add(name)
        if states.get(name, _State.UNSEEN) is _State.UNSEEN:
            states[name] = _State.WRITTEN

    def expr(self, e: Optional[ast.Expr], states: Dict[str, _State],
             cond: bool, inner: Tuple[ast.DoLoop, ...],
             owner: str = "") -> None:
        """The reads of ``e``; ``owner``: the scalar whose reduction
        statement ``e`` belongs to."""
        if e is None:
            return
        for n in ast.walk_expr(e):
            cls = n.__class__
            if cls is ast.Var:
                name = n.name.upper()
                if name != owner:
                    self.touched.add(name)
                if self.table.is_array(name):
                    self.events.append((name, False, None, cond, inner))
                else:
                    self.read(name, states)
            elif cls is ast.ArrayRef:
                self.events.append((n.name.upper(), False, n.subs, cond,
                                    inner))

    def body(self, body: Sequence[ast.Stmt], states: Dict[str, _State],
             cond: bool, inner: Tuple[ast.DoLoop, ...]) -> None:
        for s in body:
            cls = s.__class__
            if cls is ast.Assign:
                self.assign(s, states, cond, inner)
            elif cls is ast.IfBlock:
                # every condition is read before any arm runs, but each
                # condition's array accesses precede its own arm's
                arm_events = []
                for c, _ in s.arms:
                    mark = len(self.events)
                    self.expr(c, states, cond, inner)
                    arm_events.append(self.events[mark:])
                    del self.events[mark:]
                paths = []
                for (_, arm), events in zip(s.arms, arm_events):
                    self.events += events
                    paths.append(dict(states))
                    self.body(arm, paths[-1], True, inner)
                if s.arms[-1][0] is not None:
                    paths.append(states)  # the fall-through path
                _merge(states, paths)
            elif cls is ast.DoLoop:
                for e in (s.start, s.stop, s.step):
                    self.expr(e, states, cond, inner)
                self.touched.add(s.var.upper())  # an index is no reduction
                self.write(s.var.upper(), states)
                # the body may run zero times: merge like a conditional arm
                path = dict(states)
                self.body(s.body, path, cond, inner + (s,))
                _merge(states, [states, path])
            elif cls is ast.CallStmt:
                # the call's effects come from the side-effect summaries;
                # here its arguments are reads, and an array passed to it
                # is a read of the whole array (unknown use)
                for a in s.args:
                    self.expr(a, states, cond, inner)
                    if isinstance(a, (ast.Var, ast.ArrayRef)):
                        self.events.append((a.name.upper(), False, None,
                                            cond, inner))
            elif cls is ast.IoStmt:
                for item in s.items:
                    if s.kind == "READ" and isinstance(item, ast.Var) \
                            and not self.table.is_array(item.name):
                        self.touched.add(item.name.upper())
                        self.write(item.name.upper(), states)
                    else:
                        self.expr(item, states, cond, inner)
            elif cls is ast.OmpParallelDo:
                self.body([s.loop], states, cond, inner)
            else:
                # a tagged block's actuals, a computed-GOTO index, an
                # assigned-GOTO variable, an alternate-return selector:
                # no scalar or array accesses, but no reduction either
                self.touched.update(
                    n.name.upper() for e in ast.stmt_exprs(s)
                    for n in ast.walk_expr(e) if isinstance(n, ast.Var))
                if isinstance(s, ast.TaggedBlock):
                    self.body(s.body, states, cond, inner)

    def assign(self, s: ast.Assign, states: Dict[str, _State], cond: bool,
               inner: Tuple[ast.DoLoop, ...]) -> None:
        owner = ""
        hit = _reduction_op(s, self.table)
        if hit:
            owner, op = hit
            self.candidates.setdefault(owner, set()).add(op)
        self.expr(s.value, states, cond, inner, owner)
        target = s.target
        if isinstance(target, ast.Var):
            name = target.name.upper()
            if name != owner:
                self.touched.add(name)
            if self.table.is_array(name):
                self.events.append((name, True, None, cond, inner))
            else:
                self.write(name, states)
        else:
            for sub in target.subs:
                self.expr(sub, states, cond, inner, owner)
            self.events.append((target.name.upper(), True, target.subs,
                                cond, inner))


def _reduction_op(s: ast.Assign,
                  table: SymbolTable) -> Optional[Tuple[str, str]]:
    """If ``s`` is a reduction statement, return (var, op)."""
    if not isinstance(s.target, ast.Var) or table.is_array(s.target.name):
        return None
    v = s.target.name.upper()
    rhs = s.value
    occurrences = sum(1 for n in ast.walk_expr(rhs)
                      if isinstance(n, ast.Var) and n.name.upper() == v)
    if occurrences != 1:
        return None
    # MIN/MAX may appear as FuncRef (after resolution) or as a parenthesized
    # name reference (before resolution) — accept both
    if isinstance(rhs, (ast.FuncRef, ast.ArrayRef)) \
            and rhs.name.upper() in _MINMAX \
            and not table.is_array(rhs.name):
        args = rhs.args if isinstance(rhs, ast.FuncRef) else rhs.subs
        if any(isinstance(a, ast.Var) and a.name.upper() == v for a in args):
            return v, _MINMAX[rhs.name.upper()]
        return None
    # additive: rhs - v must not mention v
    delta = from_expr(rhs) - from_expr(ast.Var(v))
    if v not in delta.names_mentioned():
        return v, "+"
    # multiplicative: rhs must be v * e or e * v at the top
    if isinstance(rhs, ast.BinOp) and rhs.op == "*":
        for a, b in ((rhs.left, rhs.right), (rhs.right, rhs.left)):
            if isinstance(a, ast.Var) and a.name.upper() == v \
                    and v not in _names(b):
                return v, "*"
    return None


def _names(e: ast.Expr) -> Set[str]:
    return {n.name.upper() for n in ast.walk_expr(e)
            if isinstance(n, (ast.Var, ast.ArrayRef, ast.FuncRef))}
