"""Structured diagnostics and the fault policy of the fixed-form frontend.

The frontend (:mod:`repro.fortran.source`, :mod:`repro.fortran.parser`)
is one reader, classifier and structurer.  Whenever one of them meets a
malformed construct it tells its :class:`DiagnosticSink` and then
performs the recovery; what the sink does with the fault is the whole
difference between the two entry points.  The *strict* sink raises it
as the :class:`~repro.errors.LexError` / :class:`~repro.errors.ParseError`
it is, so the recovery is never reached (``parse_source``); the
*recording* sink stores one :class:`Diagnostic` per fault and lets the
parse continue (``parse_source_tolerant``).

A :class:`Diagnostic` is a *stable short code* (the corpus expectation
files match on it), a human message, the card position (1-based line,
1-based column where known), the offending source excerpt and a
severity.

Severities:

* ``recovered`` — the construct was replaced by a conservative stand-in
  (usually an :class:`~repro.fortran.ast.Opaque` statement) and analysis
  continues soundly around it;
* ``skipped`` — the item could not be represented at all and was dropped
  (stray closers, statements outside any unit);
* ``note`` — the frontend repaired something silently repairable
  (implicit END, implicitly closed block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.errors import ParseError, ReproError, SourceLocation

SEVERITIES = ("recovered", "skipped", "note")


@dataclass(frozen=True)
class Diagnostic:
    """One recovery action taken by the frontend."""

    code: str                  # stable short code, e.g. "parse-error"
    message: str
    file: str = "<string>"
    line: int = 0
    column: int = 0
    excerpt: str = ""
    severity: str = "recovered"

    def to_dict(self) -> Dict[str, object]:
        return dict(vars(self))

    @staticmethod
    def from_dict(d: Dict[str, object]) -> "Diagnostic":
        return Diagnostic(
            code=str(d.get("code", "")),
            message=str(d.get("message", "")),
            file=str(d.get("file", "<string>")),
            line=int(d.get("line", 0) or 0),
            column=int(d.get("column", 0) or 0),
            excerpt=str(d.get("excerpt", "")),
            severity=str(d.get("severity", "recovered")),
        )

    def describe(self) -> str:
        where = f"{self.file}:{self.line}"
        if self.column:
            where += f":{self.column}"
        out = f"{where}: [{self.code}] {self.message}"
        if self.excerpt:
            out += f"\n    | {self.excerpt}"
        return out


class DiagnosticSink:
    """Where the reader, classifier and structurer report faults; one
    parse shares one sink, so it yields one ordered list.

    ``strict=True`` makes the first fault fatal: it is raised instead of
    recorded, and ``items`` stays empty.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.items: List[Diagnostic] = []

    def report(self, code: str, message: str, recovery: str,
               location: SourceLocation, *, excerpt: str = "",
               severity: str = "recovered", column: int = 0,
               error: Type[ReproError] = ParseError) -> None:
        """A fault the caller recovers from by doing ``recovery`` next.

        Strict: raise ``error(message, location)``.  Recording: store
        ``"message; recovery"``; ``column`` refines the recorded card
        position only.
        """
        if self.strict:
            raise error(message, location)
        self.items.append(Diagnostic(
            code, f"{message}; {recovery}", location.filename,
            location.line, column or location.column, excerpt, severity))

    def caught(self, err: ReproError, code: str, location: SourceLocation,
               *, message: Optional[str] = None, excerpt: str = "",
               severity: str = "recovered") -> None:
        """A frontend error caught at a recovery boundary (a statement, a
        directive, a unit body).  Strict: re-raise it.  Recording: store
        it at ``location``, worded by the error unless ``message`` is
        given."""
        if self.strict:
            raise err
        self.items.append(Diagnostic(
            code, err.bare_message if message is None else message,
            location.filename, location.line, location.column, excerpt,
            severity))
