"""Tokenizer for condensed fixed-form Fortran 77 statements.

The lexer operates on one *condensed* statement at a time (blanks removed,
upper-cased; see :func:`repro.fortran.source.condense`), which resolves the
fixed-form blank-insensitivity rules before tokenization.

The whole token language is one compiled alternation, :data:`_TOKEN_RE`,
walked with ``finditer``: each alternative is one capturing group, so the
number of the group that matched names the token's type
(:data:`_GROUP_TYPES`) and no character is looked at in Python.  The last
alternative takes any one character none of the others could start at —
that is the :class:`~repro.errors.LexError`, worded by the character.

The only genuinely tricky spot in Fortran lexing is the period, which can
introduce a real literal (``1.5``, ``.5``, ``3.``), a dot operator
(``.GT.``), or a logical literal (``.TRUE.``).  We resolve it the way
production F77 front ends do: the dot words are alternatives of their own,
and a number may take a period only if no dot word starts there.  That one
remaining ambiguity — ``1.EQ.2`` where ``1.`` could be a real — is a
negative look-ahead in the real alternative: a period directly followed by
a dot-operator name terminates the number, so ``1.EQ.2`` lexes as
``1 .EQ. 2`` (this matches the standard's intent and every mainstream
compiler), while ``1.E5``, ``1.D0`` and ``1.EQ`` keep their period.

A character literal ends at its delimiter; the delimiter doubled inside
it (``'DON''T'``) stands for one, and the token's value holds one.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.errors import LexError, SourceLocation
from repro.fortran.tokens import Token, TokenType

#: a name (``$`` and ``@`` open generated names: inliner temporaries) and a
#: digit string; ASCII classes only (``\d`` would take any Unicode digit)
NAME = "[A-Z$@][A-Z0-9_$]*"
DIGITS = "[0-9]+"
#: the words a pair of periods may enclose
_LOGICAL_WORDS = "TRUE|FALSE"
_OPERATOR_WORDS = "NEQV|EQV|AND|NOT|OR|GE|GT|LE|LT|EQ|NE"
_EXPONENT = f"(?:[EDQ][+-]?{DIGITS})"

#: one alternative per token type, tried in order; compiles on Python
#: 3.10, so no possessive quantifier or atomic group
_TOKEN_RE = re.compile("|".join((
    f"({NAME})",
    # reals: digits with a period no dot word claims, digits with an
    # exponent, or a leading period
    rf"({DIGITS}\.(?!(?:{_OPERATOR_WORDS}|{_LOGICAL_WORDS})\.)[0-9]*{_EXPONENT}?"
    rf"|{DIGITS}{_EXPONENT}|\.{DIGITS}{_EXPONENT}?)",
    f"({DIGITS})",
    r"""('[^']*(?:''[^']*)*'|"[^"]*(?:""[^"]*)*")""",
    rf"(\.(?:{_LOGICAL_WORDS})\.)",
    # two-character relational spellings from Fortran 90 are accepted
    # because Polaris-era tools emit them in directives
    rf"(\.(?:{_OPERATOR_WORDS})\.|\*\*|//|==|/=|<=|>=|[-+*/=<>])",
    r"(\()", r"(\))", "(,)", "(:)",
    # whatever starts no token
    r"([\s\S])")))

#: the token type of each group of :data:`_TOKEN_RE`, by group number
_GROUP_TYPES = (None, TokenType.NAME, TokenType.REAL, TokenType.INT,
                TokenType.STRING, TokenType.LOGICAL, TokenType.OP,
                TokenType.LPAREN, TokenType.RPAREN, TokenType.COMMA,
                TokenType.COLON, None)

#: ``Token(type, value, pos)`` without the call through the generated
#: ``__new__`` (a sixth of the lexer's time)
_new_token = tuple.__new__


def tokenize(stmt: str, location: Optional[SourceLocation] = None) -> List[Token]:
    """Tokenize a condensed statement into a token list ending with EOF."""
    tokens: List[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(stmt):
        kind = _GROUP_TYPES[m.lastindex]
        value = m.group()
        if kind is TokenType.STRING:
            quote = value[0]
            value = value[1:-1].replace(quote + quote, quote)
        elif kind is None:
            if value == ".":
                raise LexError(f"stray '.' in {stmt!r}", location)
            if value in ("'", '"'):
                raise LexError(
                    f"unterminated character literal in {stmt!r}", location)
            raise LexError(f"unexpected character {value!r} in {stmt!r}",
                           location)
        append(_new_token(Token, (kind, value, m.start())))
    append(Token(TokenType.EOF, "", len(stmt)))
    return tokens
