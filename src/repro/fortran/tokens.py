"""Token definitions for the Fortran 77 lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenType(Enum):
    NAME = auto()        # identifiers (no reserved words in Fortran 77)
    INT = auto()         # 123
    REAL = auto()        # 1.5, 1.5E3, 2.D0
    STRING = auto()      # 'text'
    LOGICAL = auto()     # .TRUE. / .FALSE.
    OP = auto()          # + - * / ** = < > etc. and dot-operators
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    COLON = auto()
    EOF = auto()


class Token(NamedTuple):
    type: TokenType
    value: str
    pos: int = 0  # character offset in the condensed statement

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r})"

