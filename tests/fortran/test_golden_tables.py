"""Golden tables for the lexer and the expression grammar.

The tables under ``golden/`` were recorded at the commit *before* the
hand-written tokenizer loop and the ten-method precedence ladder were
replaced by one compiled pattern and one binding-power table, so they
are the old implementation's answers, kept after the old implementation
was deleted.  Each row pairs a generated input with what the frontend
said about it: a token list or a parse tree, or the error class and
message.  The generator is seeded and lives here; the tests hold both
halves — the generator still yields the recorded inputs (digest), the
frontend still yields the recorded outputs.

``python tests/fortran/test_golden_tables.py`` rewrites the tables from
the frontend under ``PYTHONPATH``; review the diff.
"""

import hashlib
import json
import os
import random
import re

import pytest

from repro.errors import LexError, ParseError, ReproError
from repro.fortran import ast
from repro.fortran.lexer import tokenize
from repro.fortran.parser import (BINDING_POWER, MAX_EXPR_DEPTH, _ExprParser,
                                  parse_expression)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SEED = 2011
ROWS = 2000

# ---------------------------------------------------------------------------
# (a) token soups
# ---------------------------------------------------------------------------

#: what the lexer meets; drawn with replacement and joined with nothing
#: in between, so pieces also fuse (``1`` + ``.EQ.``, ``'AB'`` + ``'AB'``)
SOUP_PIECES = (
    # names, generated names, letters that also end numbers
    "A", "X1", "NAME_2", "T$1", "$T", "@X", "I", "EQ", "E", "D", "D0", "E5",
    "Q", "NOT", "TRUE",
    # numbers: integer, real, exponent forms, and the period ambiguity
    "0", "1", "42", "007", "1.", "3.", ".5", "1.5", "2.D0", "1.E5", "1E6",
    "2.5Q-3", "1.5E+", "1.5E-", "1.0E-3", "1D", "1.D0", "1.EQ.2", "1.EQV.X",
    "1.TRUE.", "12.AND.", "1.E", "1.EQ",
    # dot operators and logical constants
    ".EQ.", ".NE.", ".LT.", ".LE.", ".GT.", ".GE.", ".AND.", ".OR.", ".NOT.",
    ".EQV.", ".NEQV.", ".TRUE.", ".FALSE.",
    # operators, one and two characters, and their near misses
    "+", "-", "*", "/", "**", "//", "=", "==", "/=", "<", "<=", ">", ">=",
    "=>", "=<", "***", "///", "/==",
    "(", ")", ",", ":",
)
#: character literals, both delimiters, and stray quotes
SOUP_QUOTES = ("'AB'", '"CD"', "'a b'", "''", '""', "'", '"', "'IT\"S'",
               '"IT\'S"', "'DON''T'", "'.EQ.'")
#: what a condensed statement should not hold: broken dot words, lower
#: case, blanks, characters outside the Fortran set
SOUP_STRANGERS = (".", "..", ".EQ", "EQ.", ".T.", ".XOR.", ".eq.", "1.5.5",
                  " ", "  ", "a", "x1", "e", "?", "#", "!", "_", "%", "&",
                  ";", "\t", "é", "١", "²")


def token_soups(seed=SEED, rows=ROWS):
    rng = random.Random(seed)
    out = []
    for _ in range(rows):
        strange = 0.25 if rng.random() < 0.35 else 0.0
        pieces = []
        for _ in range(rng.randrange(1, 8)):
            roll = rng.random()
            pieces.append(rng.choice(
                SOUP_QUOTES if roll < 0.03 else
                SOUP_STRANGERS if roll < 0.03 + strange else SOUP_PIECES))
        out.append("".join(pieces))
    return out


def lex(text):
    try:
        return [[t.type.name, t.value, t.pos] for t in tokenize(text)]
    except LexError as e:
        return f"LexError: {e}"


# ---------------------------------------------------------------------------
# (b) expressions, valid and broken
# ---------------------------------------------------------------------------

NAMES = ("A", "B", "I", "J", "N", "X1", "T$1", "LFLAG", "EQ", "D0")
LITERALS = ("0", "1", "2", "10", "1.5", "2.D0", ".5", "3.", "1E6", "1.0E-3",
            ".TRUE.", ".FALSE.", "'AB'", '"C D"', "''")
BINARY = ("+", "-", "*", "/", "**", "//",
          ".EQ.", ".NE.", ".LT.", ".LE.", ".GT.", ".GE.",
          "==", "/=", "<", "<=", ">", ">=",
          ".AND.", ".OR.", ".EQV.", ".NEQV.")
PREFIX = ("-", "+", ".NOT.")
#: what a mutation may drop into a well-formed expression
STRANGERS = ("(", ")", ",", ":", "=", ".", "'", "?", "*", "-", "+", "**",
             ".NOT.", ".EQ.", ".AND.", "//", "1", "A", "$")


def _operand(rng, depth):
    """One operand as a token list.  Operators are drawn without regard
    to precedence and operands are not parenthesised for it, so signs
    and ``.NOT.`` land after every operator and relationals chain."""
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        return [rng.choice(NAMES if rng.random() < 0.6 else LITERALS)]
    if roll < 0.55:
        return (_operand(rng, depth - 1) + [rng.choice(BINARY)]
                + _operand(rng, depth - 1))
    if roll < 0.70:
        return [rng.choice(PREFIX)] + _operand(rng, depth - 1)
    if roll < 0.82:
        return ["("] + _operand(rng, depth - 1) + [")"]
    # a reference: subscripts, sections, the assumed-size star
    toks = [rng.choice(NAMES), "("]
    for k in range(rng.randrange(0, 4)):
        if k:
            toks.append(",")
        toks += _subscript(rng, depth - 1)
    return toks + [")"]


def _subscript(rng, depth):
    roll = rng.random()
    if roll < 0.55:
        return _operand(rng, depth)
    if roll < 0.62:
        return ["*"]
    lo = _operand(rng, depth) if rng.random() < 0.7 else []
    hi = (["*"] if rng.random() < 0.15 else
          _operand(rng, depth) if rng.random() < 0.7 else [])
    step = [":"] + _operand(rng, depth) if rng.random() < 0.2 else []
    return lo + [":"] + hi + step


def _mutate(rng, toks):
    toks = list(toks)
    for _ in range(rng.randrange(1, 3)):
        at = rng.randrange(len(toks)) if toks else 0
        roll = rng.random()
        if roll < 0.30 and toks:
            del toks[at]
        elif roll < 0.45 and toks:
            toks.insert(at, toks[at])
        elif roll < 0.60 and len(toks) > 1:
            at = min(at, len(toks) - 2)
            toks[at], toks[at + 1] = toks[at + 1], toks[at]
        else:
            toks.insert(at, rng.choice(STRANGERS))
    return toks


def expressions(seed=SEED, rows=ROWS):
    rng = random.Random(seed + 1)
    out = []
    for _ in range(rows):
        toks = _operand(rng, rng.randrange(2, 7))
        if rng.random() < 0.35:
            toks = _mutate(rng, toks)
        text = (" " if rng.random() < 0.2 else "").join(toks)
        out.append(text.lower() if rng.random() < 0.1 else text)
    return out


def parse(text):
    try:
        return repr(parse_expression(text))
    except (ReproError, ValueError, RecursionError) as e:
        code = getattr(e, "code", "unterminated-literal"
                       if isinstance(e, LexError) else "parse-error")
        return f"{type(e).__name__}: {e} [{code}]"


# ---------------------------------------------------------------------------
# the tables
# ---------------------------------------------------------------------------

TABLES = {"tokens": (token_soups, lex), "expressions": (expressions, parse)}


def _digest(inputs):
    return hashlib.sha256("\x00".join(inputs).encode("utf-8")).hexdigest()


def _path(name):
    return os.path.join(GOLDEN, name + ".json")


def _load(name):
    with open(_path(name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_generator_still_yields_the_recorded_inputs(name):
    generate, _answer = TABLES[name]
    table = _load(name)
    inputs = generate()
    assert len(inputs) == len(table["rows"]) >= 1500
    assert _digest(inputs) == table["digest"]
    assert inputs == [row[0] for row in table["rows"]]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_frontend_still_yields_the_recorded_outputs(name):
    _generate, answer = TABLES[name]
    wrong = [(i, text, answer(text), recorded)
             for i, (text, recorded) in enumerate(_load(name)["rows"])
             if answer(text) != recorded]
    assert wrong == []


#: the rows whose answer is not the old implementation's, by table: the
#: ones the doubled-delimiter rule (``'DON''T'`` is one literal) changed
#: on purpose when the tables were re-recorded; every other row is the
#: parent commit's byte for byte
RE_RECORDED = {
    "tokens": (91, 152, 280, 496, 502, 677, 686, 719, 866, 886, 965, 1158,
               1214, 1277, 1709, 1716, 1966),
    "expressions": (453, 1878, 1887),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_re_recorded_rows_hold_a_doubled_delimiter(name):
    rows = _load(name)["rows"]
    for index in RE_RECORDED[name]:
        text = rows[index][0].replace(" ", "")
        assert "''" in text or '""' in text, (index, text)


def test_tables_cover_both_outcomes():
    """Neither table is all errors or all successes, and every token
    type and every error message family is in one."""
    tokens = _load("tokens")["rows"]
    seen = {t[0] for _text, out in tokens if isinstance(out, list)
            for t in out}
    assert seen == {"NAME", "INT", "REAL", "STRING", "LOGICAL", "OP",
                    "LPAREN", "RPAREN", "COMMA", "COLON", "EOF"}
    errors = [out for _text, out in tokens if isinstance(out, str)]
    for family in ("stray '.'", "unterminated character literal",
                   "unexpected character"):
        assert any(family in e for e in errors), family
    assert len(errors) < len(tokens) * 0.8
    trees = _load("expressions")["rows"]
    failed = [out for _text, out in trees if out.endswith("]")]
    assert len(trees) * 0.2 < len(failed) < len(trees) * 0.8
    for family in ("unexpected token", "expected RPAREN", "trailing tokens",
                   "LexError"):
        assert any(family in e for e in failed), family


# ---------------------------------------------------------------------------
# the language, row by row: what the one climbing loop must keep of the
# ladder it replaced
# ---------------------------------------------------------------------------

def tree(text):
    return repr(parse_expression(text))


def bin_(op, left, right):
    return f"BinOp(op={op!r}, left={left}, right={right})"


def neg(operand):
    return f"UnOp(op='-', operand={operand})"


def not_(operand):
    return f"UnOp(op='.NOT.', operand={operand})"


A, B, C = (f"Var(name={n!r})" for n in "ABC")

ACCEPTED = [
    # a sign opens an expression, a parenthesis, a subscript, and the
    # right operand of a relational, a logical and a concatenation
    ("-A", neg(A)), ("+A", A), ("-A*B", neg(bin_("*", A, B))),
    ("-A**B", neg(bin_("**", A, B))), ("-A+B", bin_("+", neg(A), B)),
    ("(-A)", neg(A)), ("C(-A)", f"ArrayRef(name='C', subs=({neg(A)},))"),
    ("C(A:-B)", f"ArrayRef(name='C', subs=(RangeExpr(lo={A}, "
                f"hi={neg(B)}, step=None),))"),
    ("A.LT.-B", bin_("<", A, neg(B))), ("A.AND.-B", bin_(".AND.", A, neg(B))),
    ("A//-B", bin_("//", A, neg(B))), ("A//+B", bin_("//", A, B)),
    ("A//-B//C", bin_("//", bin_("//", A, neg(B)), C)),
    # ** is right-associative and takes a minus-signed exponent
    ("A**B**C", bin_("**", A, bin_("**", B, C))),
    ("A**-B", bin_("**", A, neg(B))),
    ("A**-B**C", bin_("**", A, neg(bin_("**", B, C)))),
    ("A*B**C", bin_("*", A, bin_("**", B, C))),
    ("A**B*C", bin_("*", bin_("**", A, B), C)),
    # every other level associates to the left
    ("A-B-C", bin_("-", bin_("-", A, B), C)),
    ("A/B*C", bin_("*", bin_("/", A, B), C)),
    ("A.OR.B.OR.C", bin_(".OR.", bin_(".OR.", A, B), C)),
    ("A.EQV.B.NEQV.C", bin_(".NEQV.", bin_(".EQV.", A, B), C)),
    # .NOT. binds looser than a relational, tighter than .AND.
    (".NOT.A.EQ.B", not_(bin_("==", A, B))),
    (".NOT.A.AND.B", bin_(".AND.", not_(A), B)),
    ("A.AND..NOT.B", bin_(".AND.", A, not_(B))),
    ("A.OR..NOT.B.AND.C", bin_(".OR.", A, bin_(".AND.", not_(B), C))),
    (".NOT..NOT.A", not_(not_(A))), (".NOT.-A", not_(neg(A))),
    # the levels, loosest to tightest, in one expression
    ("A.EQV.B.OR.C.AND.A.LT.B//C+A*B**C",
     bin_(".EQV.", A, bin_(".OR.", B, bin_(".AND.", C, bin_(
         "<", A, bin_("//", B, bin_("+", C, bin_("*", A, bin_(
             "**", B, C))))))))),
    # the twelve relational spellings, canonicalised
] + [(f"A{spelling}B", bin_(op, A, B)) for spelling, op in [
    (".EQ.", "=="), (".NE.", "/="), (".LT.", "<"), (".LE.", "<="),
    (".GT.", ">"), (".GE.", ">="), ("==", "=="), ("/=", "/="), ("<", "<"),
    ("<=", "<="), (">", ">"), (">=", ">=")]]

REFUSED = [
    # no sign after an arithmetic operator, or a second one
    ("A*-B", "unexpected token '-'"), ("A+-B", "unexpected token '-'"),
    ("A-+B", "unexpected token '+'"), ("A/-B", "unexpected token '-'"),
    ("--A", "unexpected token '-'"), ("A**+B", "unexpected token '+'"),
    ("A**--B", "unexpected token '-'"),
    # a relational operator does not chain
    ("A.LT.B.LT.C", "trailing tokens"), ("A==B==C", "trailing tokens"),
    ("(A.LT.B.GT.C)", "expected RPAREN, found '.GT.'"),
    (".NOT.A.EQ.B.EQ.C", "trailing tokens"),
    # .NOT. is no operand of a relational or an arithmetic operator
    ("A.EQ..NOT.B", "unexpected token '.NOT.'"),
    ("A+.NOT.B", "unexpected token '.NOT.'"),
    ("-.NOT.A", "unexpected token '.NOT.'"),
    ("A//.NOT.B", "unexpected token '.NOT.'"),
    # `=` is a token and no operator
    ("A=B", "trailing tokens"),
]


@pytest.mark.parametrize("text,expected", ACCEPTED)
def test_accepted(text, expected):
    assert tree(text) == expected


@pytest.mark.parametrize("text,message", REFUSED)
def test_refused(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_expression(text)


@pytest.mark.parametrize("open_,close", [("(", ")"), ("ABS(", ")"),
                                         (".NOT.", ""), ("2.0**", "")])
def test_fifty_levels_parse_and_fifty_one_do_not(open_, close):
    def nested(depth):
        return open_ * depth + "Y" + close * depth

    parse_expression(nested(MAX_EXPR_DEPTH))
    with pytest.raises(ParseError, match="nested deeper") as caught:
        parse_expression(nested(MAX_EXPR_DEPTH + 1))
    assert caught.value.code == "nesting-too-deep"


def test_a_long_chain_is_a_loop_not_recursion():
    e = parse_expression("+".join(f"A{k}" for k in range(900)))
    operands = 1
    while isinstance(e, ast.BinOp):
        assert e.op == "+" and isinstance(e.right, ast.Var)
        e, operands = e.left, operands + 1
    assert operands == 900


# ---------------------------------------------------------------------------
# the structure: one table, one loop, and the documented grammar
# ---------------------------------------------------------------------------

def test_no_method_is_named_after_a_precedence_level():
    """The ladder (``_equiv`` … ``_power``) cannot regrow beside the
    binding-power table."""
    levels = ("equiv", "or", "and", "not", "relational", "concat",
              "additive", "multiplicative", "power")
    assert "expression" in vars(_ExprParser)
    for name in vars(_ExprParser):
        assert not name.strip("_").startswith(levels), name


def test_every_operator_of_the_table_is_in_the_documented_grammar():
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    with open(os.path.join(root, "docs", "frontend.md"),
              encoding="utf-8") as fh:
        section = fh.read().split("## Expression grammar")[1].split(
            "\n## ")[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 3 and cells[1].isdecimal():
            rows[int(cells[1])] = set(re.findall(r"`([^`]+)`", cells[2]))
    assert sorted(rows) == list(range(1, 10))
    for token, (level, _spelling) in BINDING_POWER.items():
        assert token in rows[level], (token, level)
    # and the table holds nothing the document does not: the two prefix
    # operators are the only documented operators that are not rows
    documented = set().union(*rows.values())
    assert documented - set(BINDING_POWER) == {".NOT."}


def record():
    os.makedirs(GOLDEN, exist_ok=True)
    for name, (generate, answer) in sorted(TABLES.items()):
        inputs = generate()
        rows = ",\n".join(json.dumps([text, answer(text)])
                          for text in inputs)
        with open(_path(name), "w", encoding="utf-8") as fh:
            # one row a line, so a changed answer is a one-line diff
            fh.write('{"seed": %d, "digest": "%s", "rows": [\n%s\n]}\n'
                     % (SEED, _digest(inputs), rows))
        print(name, len(inputs), "rows")


if __name__ == "__main__":
    record()
