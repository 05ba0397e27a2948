"""Tokenizer for condensed fixed-form Fortran 77 statements.

The lexer operates on one *condensed* statement at a time (blanks removed,
upper-cased; see :func:`repro.fortran.source.condense`), which resolves the
fixed-form blank-insensitivity rules before tokenization.

The only genuinely tricky spot in Fortran lexing is the period, which can
introduce a real literal (``1.5``, ``.5``, ``3.``), a dot operator
(``.GT.``), or a logical literal (``.TRUE.``).  We resolve it the way
production F77 front ends do: at a period, first try to match a known dot
operator / logical literal; only if none matches is the period treated as
part of a number.  The one remaining ambiguity — ``1.EQ.2`` where ``1.``
could be a real — is resolved *against* the number: a period directly
followed by a dot-operator name terminates the number, so ``1.EQ.2`` lexes
as ``1 .EQ. 2`` (this matches the standard's intent and every mainstream
compiler).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import LexError, SourceLocation
from repro.fortran.tokens import DOT_OPERATORS, Token, TokenType

_DIGITS = set("0123456789")
_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | _DIGITS | {"_", "$"}
_EXPONENT_LETTERS = set("EDQ")


def tokenize(stmt: str, location: Optional[SourceLocation] = None) -> List[Token]:
    """Tokenize a condensed statement into a token list ending with EOF."""
    tokens: List[Token] = []
    i = 0
    n = len(stmt)
    while i < n:
        ch = stmt[i]
        if ch in _NAME_START:
            j = i + 1
            while j < n and stmt[j] in _NAME_CHARS:
                j += 1
            tokens.append(Token(TokenType.NAME, stmt[i:j], i))
            i = j
        elif ch in _DIGITS or (ch == "." and i + 1 < n and stmt[i + 1] in _DIGITS
                               and _dot_operator_at(stmt, i) is None):
            tok, i = _lex_number(stmt, i, location)
            tokens.append(tok)
        elif ch == ".":
            op = _dot_operator_at(stmt, i)
            if op is None:
                raise LexError(f"stray '.' in {stmt!r}", location)
            if op in (".TRUE.", ".FALSE."):
                tokens.append(Token(TokenType.LOGICAL, op, i))
            else:
                tokens.append(Token(TokenType.OP, op, i))
            i += len(op)
        elif ch in ("'", '"'):
            j = i + 1
            while j < n and stmt[j] != ch:
                j += 1
            if j >= n:
                raise LexError(f"unterminated character literal in {stmt!r}", location)
            tokens.append(Token(TokenType.STRING, stmt[i + 1:j], i))
            i = j + 1
        elif ch == "(":
            tokens.append(Token(TokenType.LPAREN, "(", i))
            i += 1
        elif ch == ")":
            tokens.append(Token(TokenType.RPAREN, ")", i))
            i += 1
        elif ch == ",":
            tokens.append(Token(TokenType.COMMA, ",", i))
            i += 1
        elif ch == ":":
            tokens.append(Token(TokenType.COLON, ":", i))
            i += 1
        elif ch == "*" and i + 1 < n and stmt[i + 1] == "*":
            tokens.append(Token(TokenType.OP, "**", i))
            i += 2
        elif ch == "/" and i + 1 < n and stmt[i + 1] == "/":
            tokens.append(Token(TokenType.OP, "//", i))
            i += 2
        elif ch in "+-*/=<>":
            # two-character relational spellings from Fortran 90 are accepted
            # because Polaris-era tools emit them in directives
            two = stmt[i:i + 2]
            if two in ("==", "/=", "<=", ">="):
                tokens.append(Token(TokenType.OP, two, i))
                i += 2
            else:
                tokens.append(Token(TokenType.OP, ch, i))
                i += 1
        elif ch == "$" or ch == "@":
            # allowed in generated names (inliner temporaries)
            j = i + 1
            while j < n and stmt[j] in _NAME_CHARS:
                j += 1
            tokens.append(Token(TokenType.NAME, stmt[i:j], i))
            i = j
        else:
            raise LexError(f"unexpected character {ch!r} in {stmt!r}", location)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _dot_operator_at(stmt: str, i: int) -> Optional[str]:
    """Return the dot operator starting at position ``i``, if any."""
    rest = stmt[i:]
    for op in DOT_OPERATORS:
        if rest.startswith(op):
            return op
    return None


def _lex_number(stmt: str, i: int, location: Optional[SourceLocation]):
    """Lex an integer or real literal starting at position ``i``."""
    n = len(stmt)
    j = i
    is_real = False
    while j < n and stmt[j] in _DIGITS:
        j += 1
    if j < n and stmt[j] == ".":
        # a period followed by a dot-operator name ends the number: 1.EQ.2
        if _dot_operator_at(stmt, j) is None:
            is_real = True
            j += 1
            while j < n and stmt[j] in _DIGITS:
                j += 1
    if j < n and stmt[j] in _EXPONENT_LETTERS:
        # exponent part: E/D/Q followed by optional sign and digits
        k = j + 1
        if k < n and stmt[k] in "+-":
            k += 1
        if k < n and stmt[k] in _DIGITS:
            k += 1
            while k < n and stmt[k] in _DIGITS:
                k += 1
            is_real = True
            j = k
    text = stmt[i:j]
    if is_real:
        return Token(TokenType.REAL, text, i), j
    return Token(TokenType.INT, text, i), j
