"""Fixed-form Fortran 77 source handling.

Fixed form rules implemented here:

* columns 1-5: statement label (digits);
* column 6: any non-blank, non-zero character marks a continuation line;
* columns 7-72: the statement field (columns beyond 72 are ignored);
* a ``C``, ``c`` or ``*`` in column 1 marks a comment line; ``!`` starts an
  inline comment in our (slightly extended) dialect, except in column 6
  (a continuation mark like any other) or inside a character literal;
* blank lines are ignored.

Two kinds of *structured comments* are preserved rather than discarded,
because downstream passes depend on them:

* OpenMP directives: lines whose comment body starts with ``$OMP``
  (i.e. ``C$OMP`` / ``!$OMP``), and
* inline tags produced by the annotation-based inliner: comment bodies
  starting with ``@INLINE`` (``C@INLINE BEGIN ...`` / ``C@INLINE END ...``).

The reader produces :class:`LogicalLine` objects: label, joined statement
text (continuations merged), attached directives, and the originating line
number (for diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import LexError, SourceLocation
from repro.fortran.diagnostics import DiagnosticSink

#: maximum significant column of the statement field
STATEMENT_FIELD_END = 72


@dataclass
class Directive:
    """A structured comment that must survive parsing and unparsing.

    ``kind`` is ``"omp"`` for OpenMP directives and ``"tag"`` for inline
    annotation tags.  ``text`` is the body with the sentinel stripped, e.g.
    ``"PARALLEL DO"`` or ``"BEGIN MATMLT 3 PP(1,1,KS-1)|PHIT(1,1)|..."``.
    """

    kind: str
    text: str
    line: int = 0


@dataclass
class LogicalLine:
    """One logical Fortran statement after continuation merging."""

    label: Optional[int]
    text: str
    line: int  # first physical line number (1-based)
    filename: str = "<string>"
    #: directives encountered immediately before this statement
    leading: List[Directive] = field(default_factory=list)

    @property
    def location(self) -> SourceLocation:
        return SourceLocation(self.filename, self.line)


def _classify_comment(body: str, line_no: int) -> Optional[Directive]:
    """Return a Directive if a comment body is structured, else None."""
    stripped = body.strip()
    upper = stripped.upper()
    if upper.startswith("$OMP"):
        return Directive("omp", stripped[4:].strip(), line_no)
    if upper.startswith("@INLINE"):
        return Directive("tag", stripped[7:].strip(), line_no)
    return None


def read_logical_lines(text: str, filename: str = "<string>",
                       sink: Optional[DiagnosticSink] = None
                       ) -> List[LogicalLine]:
    """Split fixed-form source text into logical lines.

    Continuation lines are appended to the statement field of the previous
    logical line.  Structured comments are attached to the *following*
    statement as ``leading`` directives (matching how OpenMP directives
    annotate the loop that follows them); structured comments at end of
    file are attached to a synthetic empty logical line so they are not
    lost.

    A malformed card is reported to ``sink`` — by default a strict one,
    which raises :class:`~repro.errors.LexError` — and then repaired the
    classic "keep reading" way: a continuation card with nothing to
    continue starts a fresh statement (``orphan-continuation``; a
    structured comment ends the statement before it, so this covers a
    directive between a statement and its continuation), and a
    non-numeric label field is dropped (``bad-label``).
    """
    if sink is None:
        sink = DiagnosticSink(strict=True)
    logical: List[LogicalLine] = []
    pending: List[Directive] = []
    current: Optional[LogicalLine] = None

    def flush() -> None:
        nonlocal current
        if current is not None:
            current.text = current.text.rstrip()
            logical.append(current)
            current = None

    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        first = line[0] if line else " "
        # full-line comments
        if first in ("C", "c", "*", "!"):
            directive = _classify_comment(line[1:], idx)
            if directive is not None:
                flush()
                pending.append(directive)
            continue
        # strip inline '!' comments (outside character literals)
        line = _strip_inline_comment(line)
        if not line.strip():
            continue
        if len(line) < 6:
            line = line.ljust(6)
        label_field = line[0:5].strip()
        stmt_field = line[6:STATEMENT_FIELD_END].rstrip()
        label: Optional[int] = None
        if line[5] not in (" ", "0"):
            # continuation line
            if current is not None:
                current.text += stmt_field
                continue
            sink.report("orphan-continuation",
                        "continuation line with no statement to continue",
                        "treating it as a new statement",
                        SourceLocation(filename, idx), column=6,
                        excerpt=raw.rstrip(), error=LexError)
        else:
            flush()
            if label_field.isdecimal():
                label = int(label_field)
            elif label_field:
                sink.report("bad-label",
                            f"bad statement label {label_field!r}",
                            "ignoring the label field",
                            SourceLocation(filename, idx), column=1,
                            excerpt=raw.rstrip(), error=LexError)
        current = LogicalLine(
            label=label,
            text=stmt_field,
            line=idx,
            filename=filename,
            leading=pending,
        )
        pending = []
    flush()
    if pending:
        # trailing directives: attach to a synthetic end-marker line
        logical.append(
            LogicalLine(label=None, text="", line=pending[0].line,
                        filename=filename, leading=pending)
        )
    return logical


def _strip_inline_comment(line: str) -> str:
    """Remove a trailing ``! ...`` comment, respecting quoted strings.  A
    ``!`` in column 6 is a continuation mark and never opens one."""
    hit = line.find("!", 1)
    if hit < 0:
        return line
    if hit != 5 and "'" not in line and '"' not in line:
        return line[:hit]
    in_quote: Optional[str] = None
    for i, ch in enumerate(line):
        if in_quote:
            if ch == in_quote:
                in_quote = None
        elif ch in ("'", '"'):
            in_quote = ch
        elif ch == "!" and i != 0 and i != 5:
            return line[:i]
    return line


def condense(stmt: str, *, tolerant: bool = False,
             columns: Optional[List[int]] = None) -> str:
    """Remove blanks and upper-case a statement field, outside strings.

    Fixed-form Fortran treats blanks in the statement field as
    insignificant; the classic implementation strategy (used by PCF-era
    compilers, including Polaris) is to condense the statement before
    classification and tokenization.  Quoted character literals keep their
    spacing and case.

    An unterminated literal raises :class:`~repro.errors.LexError` unless
    ``tolerant``, which keeps its tail verbatim — the parser condenses a
    card this way, so the fault is reported where the literal is
    tokenized.  ``columns``, when given, receives for each condensed
    character the 0-based offset into ``stmt`` it came from; the card
    column is ``7 + offset`` (the statement field starts at column 7).
    """
    if columns is None and "'" not in stmt and '"' not in stmt:
        return stmt.replace(" ", "").replace("\t", "").upper()
    out: List[str] = []
    in_quote: Optional[str] = None
    for i, ch in enumerate(stmt):
        if in_quote:
            if ch == in_quote:
                in_quote = None
        elif ch in ("'", '"'):
            in_quote = ch
        elif ch == " " or ch == "\t":
            continue
        else:
            ch = ch.upper()
        out.append(ch)
        if columns is not None:
            columns.append(i)
    if in_quote and not tolerant:
        raise LexError(f"unterminated character literal in {stmt!r}")
    return "".join(out)
