"""Shared exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
distinguish tool failures from ordinary Python bugs.  Errors carry an
optional source location (file name + line number) because most of them
originate from processing Fortran source text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SourceLocation:
    """A position in a Fortran (or annotation) source file."""

    filename: str = "<string>"
    line: int = 0
    column: int = 0

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        if self.column:
            return f"{self.filename}:{self.line}:{self.column}"
        return f"{self.filename}:{self.line}"


class ReproError(Exception):
    """Base class for every error raised by this package."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None,
                 excerpt: Optional[str] = None):
        self.location = location
        self.excerpt = excerpt
        self.bare_message = message
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)

    def payload(self) -> dict:
        """Structured form for service responses and diagnostics files.

        Keeps the source excerpt and column that the flat string message
        drops, so a remote client can point at the offending card.
        """
        out: dict = {"kind": type(self).__name__,
                     "message": self.bare_message}
        if self.location is not None:
            out["file"] = self.location.filename
            out["line"] = self.location.line
            out["column"] = self.location.column
        if self.excerpt is not None:
            out["excerpt"] = self.excerpt
        return out


class LexError(ReproError):
    """Raised when source text cannot be tokenized."""


class ParseError(ReproError):
    """Raised when a token stream does not form a valid program."""


class SemanticError(ReproError):
    """Raised for name-resolution and type problems."""


class InlineError(ReproError):
    """Raised when an inlining transformation cannot be applied."""


class ReverseInlineError(InlineError):
    """Raised when a tagged segment cannot be matched back to a call.

    The reverse inliner must *never* silently emit wrong code: failure to
    match is always reported through this exception.
    """


class AnnotationError(ReproError):
    """Raised for malformed or inconsistent subroutine annotations."""


class InterpreterError(ReproError):
    """Raised when the Fortran interpreter hits an unsupported construct
    or a runtime fault (bad subscript, STOP with error, ...)."""


class JobsError(ReproError, ValueError):
    """An unusable worker-count setting (bad ``-j`` value or REPRO_JOBS)."""


class FortranStop(Exception):
    """Control-flow exception used by the interpreter for the STOP statement.

    Not a :class:`ReproError`: STOP is normal program behaviour.
    """

    def __init__(self, message: str = ""):
        self.message = message
        super().__init__(message)
