"""Recursive-descent parser for the fixed-form Fortran 77 subset.

There is one frontend.  :func:`parse_source` and
:func:`parse_source_tolerant` run the same reader, classifier,
structurer and unit-assembly loop and differ only in the
:class:`~repro.fortran.diagnostics.DiagnosticSink` they pass: every
stage reports a malformed construct to the sink and *then* recovers
from it, and a strict sink raises before the recovery is reached.

Parsing proceeds in three stages:

1. :func:`repro.fortran.source.read_logical_lines` merges continuations and
   extracts structured comments (OpenMP directives and inline tags);
2. each logical line is *classified* and parsed into a flat item — either a
   complete simple statement, or a structural marker (DO header, IF header,
   ELSE, ENDIF, ENDDO, END, directive);
3. a structurer turns the flat item list into nested
   :class:`~repro.fortran.ast.Stmt` blocks, resolving classic
   label-terminated DO loops (including nests sharing one terminator, the
   ``DO 200 ... DO 200 ... 200 CONTINUE`` idiom from the paper's Figure 2),
   block IFs, OpenMP ``PARALLEL DO`` wrappers and inline-tag blocks.

The expression grammar is standard Fortran 77 precedence, held as one
binding-power table (:data:`BINDING_POWER`) that one climbing loop
consults; ``NAME(args)`` is parsed as :class:`~repro.fortran.ast.ArrayRef`
and later reclassified by the resolution pass in
:mod:`repro.fortran.symbols`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import LexError, ParseError, ReproError, SourceLocation
from repro.fortran import ast
from repro.fortran.diagnostics import Diagnostic, DiagnosticSink
from repro.fortran.lexer import DIGITS, NAME, tokenize
from repro.fortran.source import (Directive, LogicalLine, condense,
                                  read_logical_lines)
from repro.fortran.tokens import Token, TokenType

# Limits on input from outside the program (constants, not options).  An
# expression or block nest deeper than these would exhaust the
# interpreter stack here or in the passes that walk the tree, and one
# DATA card can ask for any number of elements; each excess is reported
# like any other unparseable construct (``nesting-too-deep``,
# ``data-too-large``).  The deepest real input in the corpus and the
# PERFECT substitutes nests a few levels and expands six elements.
MAX_EXPR_DEPTH = 50
MAX_BLOCK_DEPTH = 100
MAX_DATA_ELEMENTS = 10_000


def _parse_error(message: str, location: Optional[SourceLocation], *,
                 code: str = "parse-error", offset: int = 0) -> ParseError:
    """A :class:`ParseError` that names its diagnostic code and the
    condensed offset of the failing region (the classifier maps the
    offset back to a card column)."""
    err = ParseError(message, location)
    err.code = code  # type: ignore[attr-defined]
    err.condensed_offset = offset  # type: ignore[attr-defined]
    return err


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

# the nine precedence levels of a Fortran 77 expression, loosest first
_EQUIV, _OR, _AND, _NOT, _REL, _CONCAT, _ADD, _MUL, _POW = range(1, 10)

#: The expression grammar, as data: binary operator token -> (level, AST
#: spelling); the twelve relational spellings are canonicalised here.
#: Every level associates to the left except ``**`` (to the right) and
#: the relationals (which do not chain).  The two prefix operators are
#: not rows: ``.NOT.`` opens an operand parsed at ``_NOT`` or looser, a
#: sign one parsed at ``_ADD`` or looser.
BINDING_POWER = {
    ".EQV.": (_EQUIV, ".EQV."), ".NEQV.": (_EQUIV, ".NEQV."),
    ".OR.": (_OR, ".OR."), ".AND.": (_AND, ".AND."),
    ".EQ.": (_REL, "=="), ".NE.": (_REL, "/="), ".LT.": (_REL, "<"),
    ".LE.": (_REL, "<="), ".GT.": (_REL, ">"), ".GE.": (_REL, ">="),
    "==": (_REL, "=="), "/=": (_REL, "/="), "<": (_REL, "<"),
    "<=": (_REL, "<="), ">": (_REL, ">"), ">=": (_REL, ">="),
    "//": (_CONCAT, "//"), "+": (_ADD, "+"), "-": (_ADD, "-"),
    "*": (_MUL, "*"), "/": (_MUL, "/"), "**": (_POW, "**"),
}

_NAME, _INT, _REAL = TokenType.NAME, TokenType.INT, TokenType.REAL
_STRING, _LOGICAL, _OP = TokenType.STRING, TokenType.LOGICAL, TokenType.OP
_LPAREN, _RPAREN = TokenType.LPAREN, TokenType.RPAREN
_COMMA, _COLON, _EOF = TokenType.COMMA, TokenType.COLON, TokenType.EOF

#: an expression that is one decimal integer (group 1) or one name
_ATOM_RE = re.compile(f"({DIGITS})|{NAME}")


class _ExprParser:
    """Precedence-climbing expression parser over a token list (which
    ends with EOF, so the token at ``i`` always exists)."""

    def __init__(self, tokens: List[Token], location: SourceLocation):
        self.toks = tokens
        self.i = 0
        self.location = location
        self.depth = 0

    def _nest(self) -> None:
        """Enter one level of recursive descent: a parenthesis, a
        subscript list, a ``.NOT.`` or a ``**`` exponent."""
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise _parse_error(
                f"expression nested deeper than {MAX_EXPR_DEPTH} levels",
                self.location, code="nesting-too-deep")

    def _close(self) -> None:
        """Leave a parenthesis or subscript list at its ``)``."""
        kind, value, _ = self.toks[self.i]
        if kind is not _RPAREN:
            raise ParseError(f"expected RPAREN, found {value!r}",
                             self.location)
        self.i += 1
        self.depth -= 1

    def expression(self, level: int = _EQUIV) -> ast.Expr:
        """Parse one operand and every binary operator after it that
        binds at ``level`` or tighter.  ``cap`` is the tightest level the
        next operator may have: what is left of it already took
        everything tighter, so a chain is this loop, not recursion."""
        toks = self.toks
        kind, value, _ = toks[self.i]
        prefix = value if kind is _OP else ""
        if prefix == ".NOT." and level <= _NOT:
            self.i += 1
            self._nest()
            e = ast.UnOp(".NOT.", self.expression(_NOT))
            self.depth -= 1
            cap = _AND
        elif (prefix == "-" or prefix == "+") and level <= _ADD:
            self.i += 1
            e = self.expression(_MUL)
            if prefix == "-":
                e = ast.UnOp("-", e)
            cap = _ADD
        else:
            e = self._primary()
            cap = _POW
        while True:
            kind, value, _ = toks[self.i]
            if kind is not _OP:
                return e
            power = BINDING_POWER.get(value)
            if power is None or not level <= power[0] <= cap:
                return e
            op_level, op = power
            self.i += 1
            if op_level == _POW:
                # ** is right-associative; a signed exponent is permitted
                self._nest()
                if toks[self.i][:2] == (_OP, "-"):
                    self.i += 1
                    right: ast.Expr = ast.UnOp("-", self.expression(_POW))
                else:
                    right = self.expression(_POW)
                self.depth -= 1
            else:
                right = self.expression(op_level + 1)
            e = ast.BinOp(op, e, right)
            # a relational operator does not chain
            cap = _NOT if op_level == _REL else op_level

    def _primary(self) -> ast.Expr:
        toks = self.toks
        kind, value, _ = toks[self.i]
        self.i += 1
        if kind is _NAME:
            if toks[self.i][0] is not _LPAREN:
                return ast.Var(value)
            self.i += 1
            self._nest()
            args = self._subscript_list()
            self._close()
            return ast.ArrayRef(value, tuple(args))
        if kind is _INT:
            return ast.IntLit(int(value))
        if kind is _REAL:
            double = "D" in value or "Q" in value
            number = float(value.replace("D", "E").replace("Q", "E"))
            return ast.RealLit(number, "DOUBLE" if double else "REAL", value)
        if kind is _STRING:
            return ast.StringLit(value)
        if kind is _LOGICAL:
            return ast.LogicalLit(value == ".TRUE.")
        if kind is _LPAREN:
            self._nest()
            e = self.expression()
            self._close()
            return e
        raise ParseError(f"unexpected token {value!r} in expression",
                         self.location)

    def _subscript_list(self) -> List[ast.Expr]:
        """Parse a comma-separated subscript/argument list; each item may be
        a section triplet ``lo:hi[:step]`` (used by annotation-lowered
        code)."""
        items: List[ast.Expr] = []
        toks = self.toks
        if toks[self.i][0] is _RPAREN:
            return items
        while True:
            items.append(self._subscript_item())
            if toks[self.i][0] is not _COMMA:
                return items
            self.i += 1

    def _subscript_item(self) -> ast.Expr:
        toks = self.toks
        lo: Optional[ast.Expr] = None
        if toks[self.i][0] is not _COLON:
            if toks[self.i][:2] == (_OP, "*"):
                # assumed-size marker inside declarations
                self.i += 1
                return ast.RangeExpr(None, None)
            lo = self.expression()
            if toks[self.i][0] is not _COLON:
                return lo
        self.i += 1
        hi: Optional[ast.Expr] = None
        if toks[self.i][0] not in (_COMMA, _RPAREN, _COLON):
            if toks[self.i][:2] == (_OP, "*"):
                self.i += 1
            else:
                hi = self.expression()
        step: Optional[ast.Expr] = None
        if toks[self.i][0] is _COLON:
            self.i += 1
            step = self.expression()
        return ast.RangeExpr(lo, hi, step)


def parse_expression(text: str,
                     location: Optional[SourceLocation] = None) -> ast.Expr:
    """Parse a standalone expression from (possibly spaced) source text."""
    return _expr(condense(text), location or SourceLocation())


def _expr(text: str, location: SourceLocation) -> ast.Expr:
    """Parse an expression from condensed text (the classifier's pieces of
    a card it has already condensed)."""
    atom = _ATOM_RE.fullmatch(text)
    if atom:
        # over half of all expressions: what the lexer and the loop
        # would make of one INT or NAME token
        return ast.IntLit(int(text)) if atom.lastindex else ast.Var(text)
    p = _ExprParser(tokenize(text, location), location)
    e = p.expression()
    if p.toks[p.i][0] is not _EOF:
        raise ParseError(f"trailing tokens after expression in {text!r}",
                         location)
    return e


# ---------------------------------------------------------------------------
# Flat items
# ---------------------------------------------------------------------------

@dataclass
class _Flat:
    """One element of the flat statement stream fed to the structurer."""

    kind: str  # stmt | decl | do | if | elseif | else | endif | enddo | end
    #            | omp | tag_begin | tag_end
    label: Optional[int] = None
    stmt: Optional[ast.Stmt] = None
    # do headers
    do_var: str = ""
    do_start: Optional[ast.Expr] = None
    do_stop: Optional[ast.Expr] = None
    do_step: Optional[ast.Expr] = None
    do_term: Optional[int] = None
    # if headers
    cond: Optional[ast.Expr] = None
    # directives
    text: str = ""
    #: inline tags: (callee, site id, actuals) on BEGIN, (site id,) on END
    tag: tuple = ()
    location: SourceLocation = field(default_factory=SourceLocation)


_TYPE_KEYWORDS = {
    "INTEGER": "INTEGER", "REAL": "REAL", "DOUBLEPRECISION": "DOUBLE PRECISION",
    "LOGICAL": "LOGICAL", "CHARACTER": "CHARACTER",
}

_UNIT_HEADER_RE = re.compile(
    r"^(?:(INTEGER|REAL|DOUBLEPRECISION|LOGICAL))?"
    r"(PROGRAM|SUBROUTINE|FUNCTION)([A-Z][A-Z0-9_]*)(\(.*\))?$")

_ASSIGN_RE = re.compile(r"^[A-Z][A-Z0-9_$@]*")
_DO_HEADER_RE = re.compile(r"^DO(\d*),?([A-Z][A-Z0-9_$]*)=")

#: length spec after a type keyword or entity: ``*n``, ``*(n)`` or ``*(*)``
#: (the parenthesized forms are CHARACTER-only; ``*(*)`` is the
#: assumed-length dummy, stored as char_len == -1)
_LENGTH_SPEC_RE = re.compile(r"^\*(?:(\d+)|\((\d+)\)|\((\*)\))")

#: a keyword handler's "not my statement": dispatch moves to the next row
_PASS = object()


class _StatementClassifier:
    """Parses one condensed logical line into flat items."""

    def __init__(self, sink: DiagnosticSink):
        self.sink = sink
        #: logical IFs the current card has nested so far
        self.logical_ifs = 0

    def classify(self, line: LogicalLine, text: str) -> List[_Flat]:
        """``text`` is ``line.text`` condensed (``tolerant``: an open
        literal surfaces when the lexer reaches it)."""
        loc = line.location
        out: List[_Flat] = []
        for d in line.leading:
            try:
                out.append(self._directive(d, loc))
            except ReproError as e:
                self.sink.caught(e, getattr(e, "code", "bad-tag"), loc,
                                 message=str(e), excerpt=d.text,
                                 severity="skipped")
        if not text:
            return out
        self.logical_ifs = 0
        try:
            flat = self._statement(text, line.label, loc)
        except (ReproError, RecursionError, ValueError) as e:
            flat = self._unparseable(line, e)
        if flat is not None:
            out.append(flat)
        return out

    def _unparseable(self, line: LogicalLine, e: Exception) -> _Flat:
        """Report a statement that failed to classify, then box it as an
        :class:`~repro.fortran.ast.Opaque` — analyses treat one as "may
        read or write anything", so recovery is conservative."""
        # the interpreter's own limits, met before one of ours: nesting
        # the fixed limits do not name (implied-DO levels, a
        # thousand-operand chain), an integer literal of more digits
        # than int() converts
        if isinstance(e, RecursionError):
            e = _parse_error("statement nested too deeply to parse",
                             line.location, code="nesting-too-deep")
        elif isinstance(e, ValueError):
            e = ParseError(str(e), line.location)
        code = getattr(e, "code", "unterminated-literal"
                       if isinstance(e, LexError) else "parse-error")
        if isinstance(e, ParseError):
            e = _enrich_parse_error(e, line)
        self.sink.caught(e, code, e.location or line.location,
                         excerpt=line.text.rstrip())
        stmt = ast.Opaque(text=line.text.strip(), reason=code,
                          label=line.label)
        return _Flat("stmt", label=line.label, stmt=stmt,
                     location=line.location)

    # -- directives ---------------------------------------------------
    def _directive(self, d: Directive, loc: SourceLocation) -> _Flat:
        if d.kind == "omp":
            return _Flat("omp", text=d.text.upper(), location=loc)
        body = d.text.strip()
        upper = body.upper()
        if upper.startswith("BEGIN"):
            text = body[5:].strip()
            return _Flat("tag_begin", text=text, location=loc,
                         tag=_parse_tag_begin(text, loc))
        if upper.startswith("END"):
            text = body[3:].strip()
            site = text.split(None, 1)
            if not site or not site[0].isdecimal():
                raise ParseError(f"malformed inline END tag {text!r}", loc)
            return _Flat("tag_end", text=text, location=loc,
                         tag=(int(site[0]),))
        raise _parse_error(f"unknown inline tag {body!r}", loc,
                           code="bad-directive")

    # -- statements ---------------------------------------------------
    def _statement(self, text: str, label: Optional[int],
                   loc: SourceLocation) -> Optional[_Flat]:
        # DO header: DO [label[,]] var = e1, e2 [, e3]
        if text.startswith("DO") and _find_toplevel(text, ",") >= 0:
            m = _DO_HEADER_RE.match(text)
            if m:
                return self._do_header(m, text, label, loc)
        # assignment: NAME [ (subs) ] = expr, with no top-level comma
        if self._looks_like_assignment(text):
            return _Flat("stmt", label=label, location=loc,
                         stmt=self._assignment(text, label, loc))
        for keyword, handler in _STATEMENTS_BY_INITIAL.get(text[:1], ()):
            if text.startswith(keyword):
                got = handler(self, keyword, text[len(keyword):], label, loc)
                if got is _PASS:
                    continue
                if isinstance(got, ast.Stmt):
                    return _Flat("stmt", label=label, stmt=got, location=loc)
                if isinstance(got, ast.Decl):
                    return _Flat("decl", label=label, location=loc,
                                 stmt=got)  # type: ignore[arg-type]
                return got  # a structural item, or None: nothing to keep
        raise ParseError(f"unrecognized statement {text!r}", loc)

    def _looks_like_assignment(self, text: str) -> bool:
        m = _ASSIGN_RE.match(text)
        if not m:
            return False
        i = m.end()
        if text.startswith("(", i):
            # the subscript list, matched by parentheses alone
            i = _matching_paren(text, i) + 1
            if not i:
                return False
        return text.startswith("=", i) and _find_toplevel(text, ",") < 0

    def _assignment(self, text: str, label: Optional[int],
                    loc: SourceLocation) -> ast.Stmt:
        eq = _toplevel_eq(text)
        target = _expr(text[:eq], loc)
        if not isinstance(target, (ast.Var, ast.ArrayRef)):
            raise ParseError(f"bad assignment target in {text!r}", loc)
        value = _expr(text[eq + 1:], loc)
        return ast.Assign(target, value, label)

    def _do_header(self, m: "re.Match[str]", text: str,
                   label: Optional[int], loc: SourceLocation) -> _Flat:
        term = int(m.group(1)) if m.group(1) else None
        var = m.group(2)
        rest = text[m.end():]
        parts = _split_toplevel(rest, ",")
        if len(parts) not in (2, 3):
            raise ParseError(f"malformed DO statement {text!r}", loc)
        start = _expr(parts[0], loc)
        stop = _expr(parts[1], loc)
        step = _expr(parts[2], loc) if len(parts) == 3 else None
        return _Flat("do", label=label, do_var=var, do_start=start,
                     do_stop=stop, do_step=step, do_term=term, location=loc)

    # -- keyword handlers (rows of STATEMENTS) ------------------------
    # handler(self, keyword, rest, label, loc), ``rest`` the condensed
    # text after the keyword; returns a statement, a declaration, a
    # structural _Flat, None (nothing to keep) or _PASS.

    def _bare(self, kw, rest, label, loc):
        """END, ENDDO, ENDIF, ELSE: the keyword and nothing else."""
        if rest:
            return _PASS
        return _Flat(kw.lower(), label=label, location=loc)

    def _else_if(self, kw, rest, label, loc):
        cond, then = _balanced_paren(rest, loc)
        if then != "THEN":
            raise ParseError(f"malformed ELSE IF {kw + rest!r}", loc)
        return _Flat("elseif", label=label, cond=_expr(cond, loc),
                     location=loc)

    def _if(self, kw, rest, label, loc):
        cond, tail = _balanced_paren(rest, loc)
        cond_expr = _expr(cond, loc)
        if tail == "THEN":
            return _Flat("if", label=label, cond=cond_expr, location=loc)
        # IF (a) IF (b) ... nests blocks as surely as IF ... THEN does
        self.logical_ifs += 1
        if self.logical_ifs > MAX_BLOCK_DEPTH:
            raise _parse_error(
                f"blocks nested deeper than {MAX_BLOCK_DEPTH} levels", loc,
                code="nesting-too-deep")
        inner = self._statement(tail, None, loc)
        if inner is None or inner.kind != "stmt":
            raise ParseError(
                f"unsupported statement in logical IF: {kw + rest!r}", loc)
        return ast.IfBlock([(cond_expr, [inner.stmt])], label)

    def _call(self, kw, rest, label, loc):
        m = re.match(r"^([A-Z][A-Z0-9_$]*)", rest)
        if not m:
            raise ParseError(f"malformed CALL {kw + rest!r}", loc)
        args: Tuple[ast.Expr, ...] = ()
        tail = rest[m.end():]
        if tail:
            inner, after = _balanced_paren(tail, loc)
            if after:
                raise ParseError(f"trailing text after CALL {kw + rest!r}",
                                 loc)
            if inner:
                args = tuple(self._call_arg(p, loc)
                             for p in _split_toplevel(inner, ","))
        return ast.CallStmt(m.group(1), args, label)

    def _goto(self, kw, rest, label, loc):
        """The three GOTO forms."""
        if rest.isdecimal():
            return ast.Goto(int(rest), label)
        if rest.startswith("("):
            inner, after = _balanced_paren(rest, loc)
            targets = self._label_list(inner, loc)
            if not targets or not after:
                raise ParseError(f"malformed computed GOTO {kw + rest!r}",
                                 loc)
            if after.startswith(","):
                after = after[1:]
            return ast.ComputedGoto(targets, _expr(after, loc), label)
        m = re.match(r"^([A-Z][A-Z0-9_$]*)", rest)
        if not m:
            raise ParseError(f"malformed GOTO {kw + rest!r}", loc)
        var = m.group(1)
        after = rest[m.end():]
        targets: Tuple[int, ...] = ()
        if after:
            if after.startswith(","):
                after = after[1:]
            inner, trailing = _balanced_paren(after, loc)
            if trailing:
                raise ParseError(
                    f"trailing text after assigned GOTO {kw + rest!r}", loc)
            targets = self._label_list(inner, loc)
        return ast.AssignedGoto(var, targets, label)

    def _label_list(self, inner: str,
                    loc: SourceLocation) -> Tuple[int, ...]:
        parts = [p for p in _split_toplevel(inner, ",") if p]
        if not all(p.isdecimal() for p in parts):
            raise ParseError(f"non-label entry in GOTO label list "
                             f"({inner})", loc)
        return tuple(int(p) for p in parts)

    def _call_arg(self, text: str, loc: SourceLocation) -> ast.Expr:
        m = re.match(r"^\*(\d+)$", text)
        if m:
            return ast.AltReturn(int(m.group(1)))
        return _expr(text, loc)

    def _assign(self, kw, rest, label, loc):
        m = re.match(r"^(\d+)TO([A-Z][A-Z0-9_$]*)$", rest)
        if not m:
            return _PASS
        return ast.LabelAssign(int(m.group(1)), m.group(2), label)

    def _entry(self, kw, rest, label, loc):
        m = re.match(r"^([A-Z][A-Z0-9_$]*)(\(.*\))?$", rest)
        if not m:
            raise ParseError(f"malformed ENTRY {kw + rest!r}", loc)
        params: Tuple[str, ...] = ()
        if m.group(2):
            params = tuple(p for p in m.group(2)[1:-1].split(",") if p)
        return ast.EntryStmt(m.group(1), params, label)

    def _continue(self, kw, rest, label, loc):
        return _PASS if rest else ast.Continue(label)

    def _return(self, kw, rest, label, loc):
        return ast.Return(label, _expr(rest, loc) if rest else None)

    def _stop(self, kw, rest, label, loc):
        msg = None
        if rest:
            toks = tokenize(rest, loc)
            msg = toks[0].value if toks[0].type is TokenType.STRING else rest
        return ast.Stop(msg, label)

    def _read_write(self, kw, rest, label, loc):
        if kw == "READ" and rest and not rest.startswith("("):
            # ``READ f, list`` reads the default unit: ``READ (*, f) list``
            parts = _split_toplevel(rest, ",")
            items = tuple(_expr(p, loc) for p in parts[1:])
            return ast.IoStmt("READ", "*," + parts[0], items, label)
        control, rest = _balanced_paren(rest, loc)
        items = tuple(_expr(p, loc) for p in _split_toplevel(rest, ",") if p)
        return ast.IoStmt(kw, control, items, label)

    def _print(self, kw, rest, label, loc):
        parts = _split_toplevel(rest, ",")
        items = tuple(_expr(p, loc) for p in parts[1:])
        return ast.IoStmt("PRINT", parts[0], items, label)

    def _format(self, kw, rest, label, loc):
        return ast.Format(label, rest)

    # -- declarations ---------------------------------------------------
    def _implicit(self, kw, rest, label, loc):
        return ast.ImplicitDecl(rest)

    def _dimension(self, kw, rest, label, loc):
        return ast.DimensionDecl(self._entity_list(rest, loc))

    def _common(self, kw, rest, label, loc):
        block = ""
        if rest.startswith("/"):
            j = rest.find("/", 1)
            if j < 0:
                raise ParseError(
                    f"unterminated COMMON block name in {kw + rest!r}", loc)
            block = rest[1:j]
            rest = rest[j + 1:]
        return ast.CommonDecl(block, self._entity_list(rest, loc))

    def _parameter(self, kw, rest, label, loc):
        inner, after = _balanced_paren(rest, loc)
        if after:
            raise ParseError(f"malformed PARAMETER {kw + rest!r}", loc)
        pairs: List[Tuple[str, ast.Expr]] = []
        for item in _split_toplevel(inner, ","):
            eq = _toplevel_eq(item)
            pairs.append((item[:eq], _expr(item[eq + 1:], loc)))
        return ast.ParameterDecl(pairs)

    def _save(self, kw, rest, label, loc):
        return ast.SaveDecl(_split_toplevel(rest, ",") if rest else [])

    def _external(self, kw, rest, label, loc):
        return ast.ExternalDecl(_split_toplevel(rest, ","))

    def _intrinsic(self, kw, rest, label, loc):
        return ast.IntrinsicDecl(_split_toplevel(rest, ","))

    def _type(self, kw, rest, label, loc):
        typename = _TYPE_KEYWORDS[kw]
        char_len = None
        if rest.startswith("*"):
            m = _LENGTH_SPEC_RE.match(rest)
            if not m:
                raise ParseError(f"malformed length in {kw + rest!r}", loc)
            length = -1 if m.group(3) else int(m.group(1) or m.group(2))
            rest = rest[m.end():]
            if kw == "CHARACTER":
                char_len = length
            elif kw == "REAL" and length == 8:
                typename = "DOUBLE PRECISION"
            # INTEGER*4/INTEGER*8 both map to INTEGER
        if not rest:
            return _PASS
        return ast.TypeDecl(typename, self._entity_list(rest, loc), char_len)

    def _equivalence(self, kw, rest, label, loc):
        groups: List[Tuple[ast.Expr, ...]] = []
        while rest:
            if rest.startswith(","):
                rest = rest[1:]
            inner, rest = _balanced_paren(rest, loc)
            refs = tuple(_expr(p, loc)
                         for p in _split_toplevel(inner, ",") if p)
            if len(refs) < 2 or not all(
                    isinstance(r, (ast.Var, ast.ArrayRef)) for r in refs):
                raise ParseError(
                    f"EQUIVALENCE group needs two or more variable "
                    f"references ({inner})", loc)
            groups.append(refs)
        if not groups:
            raise ParseError("empty EQUIVALENCE statement", loc)
        return ast.EquivalenceDecl(groups)

    def _entity_list(self, text: str, loc: SourceLocation) -> List[ast.Entity]:
        entities: List[ast.Entity] = []
        for item in _split_toplevel(text, ","):
            if not item:
                continue
            m = re.match(r"^([A-Z][A-Z0-9_$@]*)", item)
            if not m:
                raise ParseError(f"bad declaration entity {item!r}", loc)
            name = m.group(1)
            rest = item[m.end():]
            dims: Optional[Tuple[ast.Dim, ...]] = None
            char_len = None
            if rest.startswith("*"):
                m2 = _LENGTH_SPEC_RE.match(rest)
                if not m2:
                    raise ParseError(f"bad length spec {item!r}", loc)
                char_len = -1 if m2.group(3) else int(m2.group(1)
                                                     or m2.group(2))
                rest = rest[m2.end():]
            if rest.startswith("("):
                inner, after = _balanced_paren(rest, loc)
                if after:
                    raise ParseError(f"bad declaration entity {item!r}", loc)
                dims = tuple(self._dim(d, loc)
                             for d in _split_toplevel(inner, ","))
            elif rest:
                raise ParseError(f"bad declaration entity {item!r}", loc)
            entities.append(ast.Entity(name, dims, char_len))
        return entities

    def _dim(self, text: str, loc: SourceLocation) -> ast.Dim:
        parts = _split_toplevel(text, ":")
        if len(parts) == 1:
            if parts[0] == "*":
                return ast.Dim(ast.IntLit(1), None)
            return ast.Dim(ast.IntLit(1), _expr(parts[0], loc))
        if len(parts) == 2:
            lower = _expr(parts[0], loc)
            if parts[1] == "*":
                return ast.Dim(lower, None)
            return ast.Dim(lower, _expr(parts[1], loc))
        raise ParseError(f"bad dimension spec {text!r}", loc)

    def _data(self, kw, rest, label, loc):
        """DATA: offsets reported from here are absolute within the
        condensed statement, so the classifier can map them back to card
        columns."""
        text = kw + rest
        targets: List[ast.Expr] = []
        values: List[ast.Expr] = []
        # implied-DO iterations and repeat counts the whole statement may
        # still expand
        budget = [MAX_DATA_ELEMENTS]
        i = 4
        n = len(text)
        while i < n:
            j = _find_toplevel(text, "/", i)
            if j < 0:
                raise _parse_error(
                    f"malformed DATA statement {text!r}: missing '/' value "
                    f"list", loc, offset=i)
            for t in _split_toplevel(text[i:j].strip(","), ","):
                if t:
                    targets.extend(
                        self._expand_data_target(t, loc, {}, i, budget))
            k = text.find("/", j + 1)
            if k < 0:
                raise _parse_error(
                    f"malformed DATA statement {text!r}: unterminated value "
                    f"list", loc, offset=j)
            for v in _split_toplevel(text[j + 1:k], ","):
                m = re.match(r"^(\d+)\*(.+)$", v)
                if m:
                    rep = int(m.group(1))
                    _spend(budget, rep, loc, j)
                    val = _expr(m.group(2), loc)
                    values.extend([val] * rep)
                else:
                    values.append(_expr(v, loc))
            i = k + 1
            if i < n and text[i] == ",":
                i += 1
        # no target/value count check: a whole-array target (DATA A/10*0./)
        # legitimately consumes many values; the interpreter pairs them up
        return ast.DataDecl(targets, values)

    def _expand_data_target(self, t: str, loc: SourceLocation, env: dict,
                            offset: int, budget: List[int]
                            ) -> List[ast.Expr]:
        """Expand one DATA target item; implied-DO loops over constant
        bounds become explicit element references."""
        if t.startswith("("):
            inner, after = _balanced_paren(t, loc)
            if not after:
                parts = _split_toplevel(inner, ",")
                ci = None
                m = None
                for idx, part in enumerate(parts):
                    m = re.match(r"^([A-Z][A-Z0-9_$]*)=", part)
                    if m and _find_toplevel(part, "=") >= 0:
                        ci = idx
                        break
                if ci is None or ci == 0:
                    raise _parse_error(
                        f"malformed implied-DO in DATA ({inner})", loc,
                        offset=offset)
                ctrl = parts[ci:]
                if len(ctrl) not in (2, 3):
                    raise _parse_error(
                        f"implied-DO in DATA needs 2 or 3 control "
                        f"expressions ({inner})", loc, offset=offset)
                var = m.group(1)
                start = self._const_int(ctrl[0][m.end():], loc, env, offset)
                stop = self._const_int(ctrl[1], loc, env, offset)
                step = (self._const_int(ctrl[2], loc, env, offset)
                        if len(ctrl) == 3 else 1)
                if step == 0:
                    raise _parse_error(
                        "implied-DO in DATA has step 0", loc, offset=offset)
                _spend(budget, max((stop - start) // step + 1, 0), loc,
                       offset)
                out: List[ast.Expr] = []
                iv = start
                while (iv <= stop) if step > 0 else (iv >= stop):
                    env2 = dict(env)
                    env2[var] = iv
                    for item in parts[:ci]:
                        out.extend(self._expand_data_target(
                            item, loc, env2, offset, budget))
                    iv += step
                return out
        e = _expr(t, loc)
        if env:
            e = _subst_const(e, env)
        return [e]

    def _const_int(self, text: str, loc: SourceLocation, env: dict,
                   offset: int) -> int:
        e = _subst_const(_expr(text, loc), env)
        if not isinstance(e, ast.IntLit):
            raise _parse_error(
                f"implied-DO bound {text!r} in DATA is not a constant", loc,
                offset=offset)
        return e.value


_C = _StatementClassifier

#: The statement families, as data: ``(keyword, handler)`` rows tried in
#: order against the condensed statement (after the DO-header and
#: assignment shapes, which no keyword introduces).  The first row whose
#: keyword prefixes the text and whose handler does not pass wins.
STATEMENTS = (
    ("END", _C._bare), ("ENDDO", _C._bare), ("ENDIF", _C._bare),
    ("ELSE", _C._bare), ("ELSEIF", _C._else_if), ("IF", _C._if),
    ("CALL", _C._call), ("GOTO", _C._goto), ("ASSIGN", _C._assign),
    ("ENTRY", _C._entry), ("CONTINUE", _C._continue),
    ("RETURN", _C._return), ("STOP", _C._stop),
    ("WRITE", _C._read_write), ("READ", _C._read_write),
    ("PRINT", _C._print), ("FORMAT", _C._format),
    ("IMPLICIT", _C._implicit), ("DIMENSION", _C._dimension),
    ("COMMON", _C._common), ("PARAMETER", _C._parameter),
    ("SAVE", _C._save), ("EXTERNAL", _C._external),
    ("INTRINSIC", _C._intrinsic), ("EQUIVALENCE", _C._equivalence),
    ("DATA", _C._data),
) + tuple((kw, _C._type) for kw in _TYPE_KEYWORDS)

#: the rows a statement can match, by its first character, in table order
_STATEMENTS_BY_INITIAL = {
    initial: tuple(row for row in STATEMENTS if row[0][0] == initial)
    for initial in {keyword[0] for keyword, _handler in STATEMENTS}}


def _spend(budget: List[int], n: int, loc: SourceLocation,
           offset: int) -> None:
    """Charge ``n`` expanded elements to a DATA statement's budget."""
    budget[0] -= n
    if budget[0] < 0:
        raise _parse_error(
            f"DATA statement expands to more than {MAX_DATA_ELEMENTS} "
            f"elements", loc, code="data-too-large", offset=offset)


def _enrich_parse_error(e: ParseError, line: LogicalLine) -> ParseError:
    """Attach the offending source excerpt and a card column to a
    classification error (service responses render ``payload()``, which
    would otherwise lose the source line entirely)."""
    if e.excerpt is not None:
        return e
    cmap: List[int] = []
    condense(line.text, tolerant=True, columns=cmap)
    offset = getattr(e, "condensed_offset", 0)
    if cmap:
        offset = min(max(offset, 0), len(cmap) - 1)
        column = 7 + cmap[offset]
    else:
        column = 7
    loc = e.location or line.location
    enriched = ParseError(
        e.bare_message,
        SourceLocation(loc.filename, loc.line, column),
        excerpt=line.text.rstrip())
    return enriched


def _subst_const(e: ast.Expr, env: dict) -> ast.Expr:
    """Substitute implied-DO variables with their integer values and fold
    the resulting constant integer arithmetic."""

    def fn(x: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(x, ast.Var) and x.name in env:
            return ast.IntLit(env[x.name])
        if isinstance(x, ast.UnOp) and x.op == "-" \
                and isinstance(x.operand, ast.IntLit):
            return ast.IntLit(-x.operand.value)
        if isinstance(x, ast.BinOp) and isinstance(x.left, ast.IntLit) \
                and isinstance(x.right, ast.IntLit):
            lv, rv = x.left.value, x.right.value
            if x.op == "+":
                return ast.IntLit(lv + rv)
            if x.op == "-":
                return ast.IntLit(lv - rv)
            if x.op == "*":
                return ast.IntLit(lv * rv)
            if x.op == "/" and rv != 0:
                # Fortran integer division truncates toward zero
                return ast.IntLit(int(lv / rv))
        return None

    return ast.map_expr(e, fn)


# ---------------------------------------------------------------------------
# top-level-character scanning helpers (operate on condensed text)
# ---------------------------------------------------------------------------

_QUOTE_RE = re.compile("['\"]")


def _find_toplevel(text: str, ch: str, start: int = 0) -> int:
    """The first ``ch`` at or after ``start`` that is outside every
    parenthesis and character literal, or -1."""
    depth = 0
    hit = text.find(ch, start)
    while hit >= 0:
        if _QUOTE_RE.search(text, start, hit):
            break
        # no literal to step over: the depth at the hit is the count of
        # parentheses opened less closed before it
        depth += text.count("(", start, hit) - text.count(")", start, hit)
        if depth == 0:
            return hit
        start = hit + 1
        hit = text.find(ch, start)
    else:
        return -1
    in_quote: Optional[str] = None
    for i in range(start, len(text)):
        c = text[i]
        if in_quote:
            if c == in_quote:
                in_quote = None
        elif c in ("'", '"'):
            in_quote = c
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and c == ch:
            return i
    return -1


def _toplevel_eq(text: str) -> int:
    eq = _find_toplevel(text, "=")
    if eq < 0:
        raise ParseError(f"expected '=' in {text!r}")
    return eq


def _split_toplevel(text: str, sep: str) -> List[str]:
    parts: List[str] = []
    start = 0
    while True:
        # a top-level hit leaves no parenthesis or literal open, so the
        # scan for the next one may start afresh behind it
        hit = _find_toplevel(text, sep, start)
        if hit < 0:
            parts.append(text[start:])
            return parts
        parts.append(text[start:hit])
        start = hit + 1


def _matching_paren(text: str, open_: int) -> int:
    """The index of the ``)`` closing the ``(`` at ``open_``, or -1;
    character literals are not looked at."""
    depth = 0
    start = open_
    while True:
        close = text.find(")", start)
        if close < 0:
            return -1
        depth += text.count("(", start, close) - 1
        if depth == 0:
            return close
        start = close + 1


def _balanced_paren(text: str, loc: SourceLocation) -> Tuple[str, str]:
    """``text`` must start with '('; return (inner, rest-after-close)."""
    if not text.startswith("("):
        raise ParseError(f"expected '(' in {text!r}", loc)
    close = _matching_paren(text, 0)
    if close < 0:
        raise ParseError(f"unbalanced parentheses in {text!r}", loc)
    return text[1:close], text[close + 1:]


# ---------------------------------------------------------------------------
# Structurer
# ---------------------------------------------------------------------------

class _Structurer:
    """Builds nested statement blocks from the flat item stream.

    A block whose terminator is missing is closed at the end of the
    *enclosing* region (which is how most real compilers recover); a
    closer with no opener is dropped.
    """

    def __init__(self, items: List[_Flat], sink: DiagnosticSink):
        self.items = items
        self.sink = sink
        self.depth = 0

    def build(self, lo: int, hi: int) -> List[ast.Stmt]:
        if self.depth > MAX_BLOCK_DEPTH:
            raise _parse_error(
                f"blocks nested deeper than {MAX_BLOCK_DEPTH} levels",
                self.items[lo - 1].location, code="nesting-too-deep")
        self.depth += 1
        out: List[ast.Stmt] = []
        i = lo
        while i < hi:
            stmt, i = self._one(i, hi)
            if stmt is not None:
                out.append(stmt)
        self.depth -= 1
        return out

    def _one(self, i: int, hi: int) -> Tuple[Optional[ast.Stmt], int]:
        it = self.items[i]
        if it.kind == "stmt":
            return it.stmt, i + 1
        if it.kind == "do":
            return self._do(i, hi)
        if it.kind == "if":
            return self._if(i, hi)
        if it.kind == "omp":
            return self._omp(i, hi)
        if it.kind == "tag_begin":
            return self._tagged(i, hi)
        # a closer with no opener: endif, else, elseif, enddo, tag_end
        self.sink.report("stray-closer",
                         f"unmatched inline END tag {it.text!r}"
                         if it.kind == "tag_end" else
                         f"unexpected {it.kind.upper()}",
                         "skipping it", it.location, severity="skipped")
        return None, i + 1

    def _do(self, i: int, hi: int) -> Tuple[ast.Stmt, int]:
        it = self.items[i]
        term = it.do_term
        if term is not None:
            j = self._find_label(i + 1, hi, term)
            end = nxt = j + 1  # the terminator is part of the body
            missing = ("missing-do-label",
                       f"DO terminator label {term} not found")
        else:
            j = self._match_enddo(i + 1, hi)
            end, nxt = j, j + 1
            missing = ("missing-enddo", "missing ENDDO")
        if j < 0:
            self.sink.report(*missing, "closing the loop at the end of the "
                             "enclosing block", it.location, severity="note")
            end, nxt, term = hi, hi, None
        loop = ast.DoLoop(it.do_var, it.do_start, it.do_stop, it.do_step,
                          self.build(i + 1, end), it.label, term)
        return loop, nxt

    def _find_label(self, lo: int, hi: int, label: int) -> int:
        for j in range(lo, hi):
            if self.items[j].label == label and self.items[j].kind == "stmt":
                return j
        return -1

    def _match_enddo(self, lo: int, hi: int) -> int:
        depth = 0
        for j in range(lo, hi):
            it = self.items[j]
            if it.kind == "do" and it.do_term is None:
                depth += 1
            elif it.kind == "enddo":
                if depth == 0:
                    return j
                depth -= 1
        return -1

    def _if(self, i: int, hi: int) -> Tuple[ast.Stmt, int]:
        header = self.items[i]
        arms: List[Tuple[Optional[ast.Expr], List[ast.Stmt]]] = []
        cond: Optional[ast.Expr] = header.cond
        arm_start = i + 1
        depth = 0
        j = i + 1
        while j < hi:
            it = self.items[j]
            if it.kind == "if":
                depth += 1
            elif it.kind == "endif":
                if depth == 0:
                    arms.append((cond, self.build(arm_start, j)))
                    return ast.IfBlock(arms, header.label), j + 1
                depth -= 1
            elif depth == 0 and it.kind == "elseif":
                arms.append((cond, self.build(arm_start, j)))
                cond = it.cond
                arm_start = j + 1
            elif depth == 0 and it.kind == "else":
                arms.append((cond, self.build(arm_start, j)))
                cond = None
                arm_start = j + 1
            j += 1
        self.sink.report("missing-endif", "missing ENDIF",
                         "closing the IF block at the end of the enclosing "
                         "block", header.location, severity="note")
        arms.append((cond, self.build(arm_start, hi)))
        return ast.IfBlock(arms, header.label), hi

    def _omp(self, i: int, hi: int) -> Tuple[Optional[ast.Stmt], int]:
        it = self.items[i]
        text = it.text.replace(" ", "")
        if text.startswith(("ENDPARALLEL", "ENDDO")):
            return None, i + 1
        if not text.startswith(("PARALLEL", "DO")):
            self.sink.report("bad-omp",
                             f"unsupported OpenMP directive {it.text!r}",
                             "dropping it", it.location, severity="skipped")
            return None, i + 1
        private, reductions, schedule = _parse_omp_clauses(it.text)
        # the directive governs the next DO loop in the stream; intervening
        # companion directives (e.g. separate PARALLEL then DO) are merged
        j = i + 1
        while j < hi and self.items[j].kind == "omp":
            p2, r2, s2 = _parse_omp_clauses(self.items[j].text)
            private += p2
            reductions += r2
            schedule = schedule or s2
            j += 1
        if j >= hi or self.items[j].kind != "do":
            self.sink.report("omp-no-loop",
                             "OpenMP PARALLEL DO directive not followed by "
                             "a DO loop", "dropping the directive",
                             it.location, severity="skipped")
            return None, j
        loop_stmt, nxt = self._do(j, hi)
        assert isinstance(loop_stmt, ast.DoLoop)
        return ast.OmpParallelDo(loop_stmt, tuple(private),
                                 tuple(reductions), schedule), nxt

    def _tagged(self, i: int, hi: int) -> Tuple[ast.Stmt, int]:
        it = self.items[i]
        callee, site_id, actuals = it.tag
        depth = 0
        for j in range(i + 1, hi):
            item = self.items[j]
            if item.kind == "tag_begin":
                depth += 1
            elif item.kind == "tag_end":
                if depth == 0:
                    if item.tag[0] != site_id:
                        self.sink.report(
                            "tag-mismatch",
                            f"inline tag mismatch: BEGIN {site_id} closed "
                            f"by END {item.tag[0]}", "accepting the closure",
                            item.location, severity="note")
                    end, nxt = j, j + 1
                    break
                depth -= 1
        else:
            self.sink.report("missing-end-tag",
                             f"missing inline END tag for site {site_id}",
                             "closing it at the end of the enclosing block",
                             it.location, severity="note")
            end = nxt = hi
        return ast.TaggedBlock(callee, site_id, actuals,
                               self.build(i + 1, end), it.label), nxt


def _parse_omp_clauses(text: str):
    private: List[str] = []
    reductions: List[Tuple[str, str]] = []
    schedule: Optional[str] = None
    upper = condense(text)
    for m in re.finditer(r"PRIVATE\(([^)]*)\)", upper):
        private.extend(x for x in m.group(1).split(",") if x)
    for m in re.finditer(r"REDUCTION\(([^:]+):([^)]*)\)", upper):
        op = m.group(1)
        for v in m.group(2).split(","):
            if v:
                reductions.append((op, v))
    m = re.search(r"SCHEDULE\(([^)]*)\)", upper)
    if m:
        schedule = m.group(1)
    return private, reductions, schedule


def _parse_tag_begin(text: str, loc: SourceLocation):
    """Parse ``<callee> <site_id> [actual|actual|...]``."""
    parts = text.split(None, 2)
    if len(parts) < 2 or not parts[1].isdecimal():
        raise ParseError(f"malformed inline BEGIN tag {text!r}", loc)
    actuals: Tuple[ast.Expr, ...] = ()
    if len(parts) == 3 and parts[2].strip():
        actuals = tuple(parse_expression(a, loc)
                        for a in parts[2].split("|") if a.strip())
    return parts[0].upper(), int(parts[1]), actuals


# ---------------------------------------------------------------------------
# Program-unit assembly
# ---------------------------------------------------------------------------

def _parse(text: str, filename: str, sink: DiagnosticSink) -> ast.SourceFile:
    """The frontend: read cards, classify statements, structure blocks,
    assemble program units — reporting every fault to ``sink``."""
    lines = read_logical_lines(text, filename, sink)
    classifier = _StatementClassifier(sink)
    units: List[ast.ProgramUnit] = []
    current_header: Optional[Tuple[str, str, List[str], str]] = None
    current_items: List[_Flat] = []
    header_loc = SourceLocation(filename, 0)

    def finish_unit() -> None:
        nonlocal current_header, current_items
        if current_header is None:
            return
        kind, name, params, result_type = current_header
        decls: List[ast.Decl] = []
        body_items: List[_Flat] = []
        for it in current_items:
            if it.kind == "decl":
                decls.append(it.stmt)  # type: ignore[arg-type]
            else:
                body_items.append(it)
        try:
            body = _Structurer(body_items, sink).build(0, len(body_items))
        except ReproError as e:
            # the safety net: a structuring failure with no recovery of
            # its own (block nest too deep, a directive clause that does
            # not lex) keeps the unit and boxes its whole body
            code = getattr(e, "code", "unit-structure")
            sink.caught(e, code, header_loc)
            body = [ast.Opaque(text=f"{kind} {name} body", reason=code)]
        units.append(ast.ProgramUnit(kind, name, params, decls, body,
                                     result_type))
        current_header = None
        current_items = []

    for line in lines:
        # the one condensation of the card; a strict parse stops at an
        # open character literal here, a recording one lets the lexer
        # meet it so the rest of the card still classifies
        condensed = condense(line.text, tolerant=not sink.strict)
        m = _UNIT_HEADER_RE.match(condensed) if condensed else None
        if m:
            finish_unit()
            params: List[str] = []
            if m.group(4):
                params = [p for p in m.group(4)[1:-1].split(",") if p]
            current_header = (m.group(2), m.group(3), params,
                              _TYPE_KEYWORDS.get(m.group(1) or "", ""))
            header_loc = line.location
            # directives before a unit header are not meaningful; drop them
            continue
        for f in classifier.classify(line, condensed):
            if f.kind == "end":
                finish_unit()
            elif current_header is not None:
                current_items.append(f)
            elif f.kind not in ("omp", "tag_begin", "tag_end"):
                # (stray trailing directives are dropped silently)
                sink.report("stray-statement",
                            "statement outside any program unit",
                            "skipping it", f.location,
                            excerpt=line.text.rstrip(), severity="skipped")
    if current_header is not None:
        sink.report("missing-end", "missing END for final program unit",
                    "adding an implicit one", header_loc, severity="note")
        finish_unit()
    return ast.SourceFile(units, filename)


def parse_source(text: str, filename: str = "<string>") -> ast.SourceFile:
    """Parse fixed-form source text into a
    :class:`~repro.fortran.ast.SourceFile`; the first malformed construct
    raises :class:`~repro.errors.LexError` or
    :class:`~repro.errors.ParseError`."""
    return _parse(text, filename, DiagnosticSink(strict=True))


def parse_source_tolerant(text: str, filename: str = "<string>"
                          ) -> Tuple[ast.SourceFile, List[Diagnostic]]:
    """Parse fixed-form source text, recovering from every malformed
    construct.  Returns ``(SourceFile, [Diagnostic])`` and never raises
    for malformed input.

    The returned tree is always structurally valid: statements that could
    not be understood appear as :class:`~repro.fortran.ast.Opaque`
    markers, which the analyses treat as "may touch anything".
    """
    sink = DiagnosticSink()
    return _parse(text, filename, sink), sink.items
