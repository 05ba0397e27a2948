"""The one fixed-form frontend, held to its contract.

* arbitrary input never raises (tolerant) / raises only ``ReproError``
  (strict);
* strict and tolerant agree on every program strict accepts;
* the inputs that used to crash or hang a parser are diagnosed, fast;
* the keyword table is the dialect the docs describe;
* the second frontend cannot regrow.
"""

import ast as pyast
import glob
import os
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError, ReproError
from repro.fortran import ast
from repro.fortran.fixedform import (SEVERITIES, Diagnostic,
                                     parallelize_source,
                                     parse_source_tolerant)
from repro.fortran.parser import (MAX_BLOCK_DEPTH, MAX_DATA_ELEMENTS,
                                  MAX_EXPR_DEPTH, STATEMENTS, parse_source)
from repro.fortran.unparser import expr_to_str, unparse
from repro.fuzz import GeneratorOptions, generate
from repro.perfect import all_benchmarks

HERE = os.path.dirname(__file__)
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src", "repro")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


CORPUS = {os.path.basename(p): _read(p)
          for p in sorted(glob.glob(os.path.join(HERE, "corpus", "*.f")))}
REGRESSIONS = {os.path.basename(p): _read(p)
               for p in sorted(glob.glob(os.path.join(HERE, "regressions",
                                                      "*.f")))}


def check_never_raises(text):
    """The contract of both entry points on any text whatsoever."""
    tree, diagnostics = parse_source_tolerant(text, "any.f")
    assert isinstance(tree, ast.SourceFile)
    assert isinstance(diagnostics, list)
    for d in diagnostics:
        assert isinstance(d, Diagnostic)
        assert d.severity in SEVERITIES, d
    try:
        strict = parse_source(text, "any.f")
    except ReproError:
        return
    # strict accepted it: the recording sink had nothing to record
    assert diagnostics == []
    assert strict == tree


# ---------------------------------------------------------------------------
# (a) arbitrary input never raises
# ---------------------------------------------------------------------------

#: what a card is made of: the Fortran character set, both quotes, the
#: comment/continuation/directive markers, and a few strangers
ALPHABET = ("ABCDEFGHIJKLMNOPQRSTUVWXYZ abcxyz0123456789"
            "=+-*/(),.':\"!$@&_\t%?²")
FRAGMENTS = ["IF", "THEN", "ELSE", "ENDIF", "DO", "ENDDO", "END", "CALL",
             "GOTO", "DATA", "COMMON", "PROGRAM P", "SUBROUTINE S(A)",
             "FORMAT", "CONTINUE", ".NOT.", "**", "(", ")", "/", "=", ",",
             " ", "'", "1", "10", "X", "A(I)", "$OMP PARALLEL DO",
             "@INLINE BEGIN F 1 A|B", "@INLINE END 1", "@INLINE END"]

cards = st.builds(
    lambda label, cont, pieces: label.ljust(5)[:5] + cont + "".join(pieces),
    st.one_of(st.just(""), st.sampled_from(["10", "C", "c", "*", "!", "1X"]),
              st.text(ALPHABET, max_size=5)),
    st.sampled_from([" ", " ", " ", "0", "&", "1"]),
    st.lists(st.one_of(st.sampled_from(FRAGMENTS),
                       st.text(ALPHABET, max_size=12)), max_size=12))


class TestArbitraryInputNeverRaises:
    @given(st.lists(cards, max_size=30).map("\n".join))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_arbitrary_cards(self, text):
        check_never_raises(text)

    @given(st.binary(max_size=400))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_arbitrary_bytes(self, data):
        check_never_raises(data.decode("utf-8", errors="replace"))

    def test_interpreter_limits_are_diagnosed_not_raised(self):
        # an integer literal of more digits than int() converts (3.11+),
        # a chain deep enough to exhaust the stack while DATA folds it
        check_never_raises(_program("X = " + "9" * 5000))
        check_never_raises(_program(
            "DATA (A(I),I=1," + "1+" * 3000 + "1)/1.0/"))



# ---------------------------------------------------------------------------
# (b) strict and tolerant agree
# ---------------------------------------------------------------------------

def _agree(text, name):
    strict = parse_source(text, name)
    tree, diagnostics = parse_source_tolerant(text, name)
    assert diagnostics == []
    assert tree == strict


class TestStrictAndTolerantAgree:
    def test_agree_on_corpus(self):
        accepted = 0
        for name, text in CORPUS.items():
            try:
                parse_source(text, name)
            except ReproError:
                continue  # a recovery program: tolerant-only by design
            accepted += 1
            _agree(text, name)
        assert accepted >= 10

    def test_agree_on_perfect_sources(self):
        sources = [(name, text) for b in all_benchmarks()
                   for name, text in b.sources.items()]
        assert len(sources) >= 12  # at least one file per benchmark
        for name, text in sources:
            _agree(text, name)

    @pytest.mark.parametrize("options,first", [
        (GeneratorOptions(), 0),
        (GeneratorOptions(max_blocks=24, max_callees=6,
                          dialect="extended"), 1000),
    ], ids=["core", "extended"])
    def test_agree_on_generated_programs(self, options, first):
        for seed in range(first, first + 40):
            for name, text in generate(seed, options).sources.items():
                _agree(text, name)


# ---------------------------------------------------------------------------
# the inputs that used to crash or hang a parser
# ---------------------------------------------------------------------------

EXPECTED_CODE = {
    "common_unterminated_block.f": "parse-error",
    "inline_end_no_site.f": "bad-tag",
    "inline_begin_bad_site.f": "bad-tag",
    "paren_nesting_120.f": "nesting-too-deep",
    "if_nesting_400.f": "nesting-too-deep",
    "do_nesting_400.f": "nesting-too-deep",
    "logical_if_chain_400.f": "nesting-too-deep",
    "data_implied_do_1e6.f": "data-too-large",
    "data_repeat_1e9.f": "data-too-large",
}


#: inputs that were misread rather than crashed on: both sinks read
#: them whole (TestMisreadInputs)
READ_WHOLE = {"bang_continuation.f", "apostrophe_literal.f"}


def test_every_regression_input_has_an_expectation():
    assert set(REGRESSIONS) == set(EXPECTED_CODE) | READ_WHOLE


@pytest.mark.parametrize("name", sorted(EXPECTED_CODE))
class TestRegressionInputs:
    def test_tolerant_diagnoses_it_quickly(self, name):
        t0 = time.perf_counter()
        tree, diagnostics = parse_source_tolerant(REGRESSIONS[name], name)
        assert time.perf_counter() - t0 < 1.0
        assert EXPECTED_CODE[name] in [d.code for d in diagnostics]
        assert len(tree.units) == 1

    def test_strict_raises_a_parse_error(self, name):
        t0 = time.perf_counter()
        with pytest.raises(ParseError):
            parse_source(REGRESSIONS[name], name)
        assert time.perf_counter() - t0 < 1.0


class TestMisreadInputs:
    """Two cards the reader and the lexer used to misread without a
    word: a continuation marked with ``!`` and a literal holding its
    own delimiter."""

    def test_bang_in_column_six_continues_the_statement(self):
        text = REGRESSIONS["bang_continuation.f"]
        strict = parse_source(text, "t.f")
        tolerant, diagnostics = parse_source_tolerant(text, "t.f")
        assert diagnostics == [] and strict == tolerant
        (loop,) = strict.units[0].body
        assert expr_to_str(loop.body[0].value) == "B(I)+A(I-1)"
        result = parallelize_source({"t.f": text})
        assert result["diagnostics"] == []
        assert result["parallel_count"] == 0
        (verdict,) = result["loops"]
        assert (verdict["parallel"], verdict["reason"]) == (False,
                                                            "array-dep")
        assert "A(I) = B(I)+A(I-1)" in result["output"]
        assert "!$OMP" not in result["output"]

    def test_bang_elsewhere_still_opens_a_comment(self):
        tree = parse_source("      PROGRAM P\n      X = 1 ! + 2\n"
                            "      S = 'A!B' ! tail\n      END\n")
        first, second = tree.units[0].body
        assert first.value == ast.IntLit(1)
        assert second.value == ast.StringLit("A!B")

    @pytest.mark.parametrize("literal", ["'DON''T'", "\"DON'T\""])
    def test_both_spellings_of_an_apostrophe(self, literal):
        text = _program("S = " + literal)
        tree, diagnostics = parse_source_tolerant(text)
        assert diagnostics == []
        assert tree.units[0].body[0].value == ast.StringLit("DON'T")
        _assert_unparse_fixpoint(text)

    def test_the_regression_program_round_trips(self):
        text = REGRESSIONS["apostrophe_literal.f"]
        tree = _assert_unparse_fixpoint(text)
        literals = [n.value for n in ast.walk_all_exprs(tree.units[0].body)
                    if isinstance(n, ast.StringLit)]
        assert literals == ["DON'T", "IT'S", 'SAY "HI"', 'SAY "HI"']
        assert tree.units[0].body[-1] == ast.Stop("CAN'T")

    @given(st.text("AB c'\"", max_size=24), st.sampled_from("'\""))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_any_literal_round_trips(self, value, quote):
        literal = quote + value.replace(quote, quote * 2) + quote
        tree = _assert_unparse_fixpoint(_program("S = " + literal))
        assert tree.units[0].body[0].value == ast.StringLit(value)


def _assert_unparse_fixpoint(text):
    """unparse ∘ parse is a fixpoint, with nothing to diagnose on the
    way; returns the tree."""
    tree = parse_source(text)
    once = unparse(tree)
    again, diagnostics = parse_source_tolerant(once)
    assert diagnostics == [] and again == tree, once
    assert unparse(again) == once
    return tree


def _program(*body):
    cards = []
    for stmt in ("PROGRAM P", "REAL A(10)") + body + ("END",):
        cards.append("      " + stmt[:66])
        cards += ["     &" + stmt[i:i + 66] for i in range(66, len(stmt), 66)]
    return "\n".join(cards) + "\n"


class TestLimits:
    """At a limit the whole pipeline still runs; one past it the
    construct is boxed, not crashed on."""

    @pytest.mark.parametrize("open_,close", [("(", ")"), ("ABS(", ")"),
                                             (".NOT.", ""), ("2.0**", "")])
    def test_expression_depth(self, open_, close):
        def assign(depth):
            return _program("X = " + open_ * depth + "Y" + close * depth)

        result = parallelize_source({"p.f": assign(MAX_EXPR_DEPTH)},
                                    tolerant=False)
        assert result["diagnostics"] == []
        tree, (d,) = parse_source_tolerant(assign(MAX_EXPR_DEPTH + 1))
        assert d.code == "nesting-too-deep"
        assert str(MAX_EXPR_DEPTH) in d.message
        (box,) = tree.units[0].body
        assert isinstance(box, ast.Opaque)
        assert box.reason == "nesting-too-deep"

    def test_block_depth(self):
        def nest(depth):
            return _program(*(["IF (X .GT. 0.0) THEN"] * depth + ["X = 1.0"]
                              + ["ENDIF"] * depth))

        result = parallelize_source({"p.f": nest(MAX_BLOCK_DEPTH)},
                                    tolerant=False)
        assert result["diagnostics"] == []
        tree, (d,) = parse_source_tolerant(nest(MAX_BLOCK_DEPTH + 1))
        assert d.code == "nesting-too-deep"
        # the unit survives with its body boxed
        (box,) = tree.units[0].body
        assert isinstance(box, ast.Opaque)
        assert box.reason == "nesting-too-deep"

    def test_data_expansion(self):
        ok = _program("REAL B(%d)" % MAX_DATA_ELEMENTS,
                      "DATA (B(I),I=1,%d)/1.0/" % 64)
        assert parse_source_tolerant(ok)[1] == []
        # the budget is the statement's, not each list's
        half = MAX_DATA_ELEMENTS // 2 + 1
        over = _program("DATA (A(I),I=1,%d)/%d*0.0/" % (half, half))
        tree, (d,) = parse_source_tolerant(over)
        assert d.code == "data-too-large"
        assert d.column > 7  # points into the DATA card, not at its start
        (box,) = tree.units[0].body
        assert box.reason == "data-too-large"
        with pytest.raises(ParseError):
            parse_source(over)


# ---------------------------------------------------------------------------
# the keyword table is the documented dialect
# ---------------------------------------------------------------------------

def test_every_documented_construct_is_a_keyword_of_the_table():
    doc = _read(os.path.join(ROOT, "docs", "frontend.md"))
    section = doc.split("## Accepted dialect")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines()
            if line.startswith("|") and not line.startswith(("| Construct",
                                                             "|---"))]
    assert len(rows) >= 7
    keywords = {keyword for keyword, _handler in STATEMENTS}
    for row in rows:
        construct = row.split("|")[1]
        named = re.findall(r"`([A-Z]+)`", construct)
        assert named, f"row names no keyword: {construct!r}"
        assert set(named) <= keywords, construct


def test_table_order_is_the_dispatch_order():
    # a keyword that prefixes another must come first only if its
    # handler passes on the longer statement
    keywords = [keyword for keyword, _handler in STATEMENTS]
    assert keywords.index("END") < keywords.index("ENDDO")
    assert keywords.index("ELSE") < keywords.index("ELSEIF")
    assert len(set(keywords)) == len(keywords)
    unit = parse_source(_program("IF (X .GT. 0.0) THEN", "X = 1.0",
                                 "ELSE IF (X .LT. 0.0) THEN", "X = 2.0",
                                 "ELSE", "X = 3.0", "END IF")).units[0]
    assert len(unit.body[0].arms) == 3


# ---------------------------------------------------------------------------
# (c) the structure cannot regrow
# ---------------------------------------------------------------------------

FRONTEND_MODULES = ("repro.fortran.parser", "repro.fortran.source")


def _modules():
    for directory, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                yield (os.path.relpath(path, SRC).replace(os.sep, "/"),
                       pyast.parse(_read(path)))


def test_nobody_imports_the_parsers_private_names():
    for module, tree in _modules():
        for node in pyast.walk(tree):
            if isinstance(node, pyast.ImportFrom) \
                    and node.module in FRONTEND_MODULES:
                private = [a.name for a in node.names
                           if a.name.startswith("_")]
                assert private == [], (module, private)


def test_nobody_subclasses_the_parser():
    parser = pyast.parse(_read(os.path.join(SRC, "fortran", "parser.py")))
    parser_classes = {n.name for n in parser.body
                      if isinstance(n, pyast.ClassDef)}
    assert {"_StatementClassifier", "_Structurer"} <= parser_classes
    for module, tree in _modules():
        if not module.startswith("fortran/"):
            continue
        for node in pyast.walk(tree):
            if isinstance(node, pyast.ClassDef):
                bases = {b.id if isinstance(b, pyast.Name) else
                         getattr(b, "attr", None) for b in node.bases}
                assert not bases & parser_classes, (module, node.name)


def test_fixedform_is_an_import_surface():
    package = os.path.join(SRC, "fortran", "fixedform")
    assert sorted(n for n in os.listdir(package) if n.endswith(".py")) \
        == ["__init__.py", "pipeline.py"]
