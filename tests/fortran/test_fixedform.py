"""Tolerant fixed-form frontend: card repair, statement recovery,
implicit block closing, and the never-uncaught corpus property."""

import glob
import os

import pytest

from repro.fortran import ast
from repro.fortran.fixedform import (SEVERITIES, Diagnostic,
                                     parallelize_source,
                                     parse_source_tolerant)
from repro.fortran.parser import parse_source
from repro.program import Program

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS, "*.f")))
CORPUS_IDS = [os.path.basename(p) for p in CORPUS_FILES]


def parse(text):
    return parse_source_tolerant(text, "t.f")


def records(text):
    _, diags = parse(text)
    return [(d.code, d.line, d.severity) for d in diags]


class TestCleanInput:
    def test_no_diagnostics(self):
        src = ("      PROGRAM P\n"
               "      X = 1.0\n"
               "      END\n")
        sf, diags = parse(src)
        assert diags == []
        assert sf.units == parse_source(src).units

    def test_tolerant_matches_strict_on_dialect(self):
        # the strict parser accepts the dialect constructs too; the
        # tolerant layer must produce the identical tree for them
        src = ("      PROGRAM P\n"
               "      REAL A(4), B(4)\n"
               "      EQUIVALENCE (A(1), B(2))\n"
               "      DATA A /2*1.0, 2*2.0/\n"
               "      K = 2\n"
               "      GO TO (10, 20), K\n"
               "   10 CONTINUE\n"
               "   20 CONTINUE\n"
               "      END\n")
        sf, diags = parse(src)
        assert diags == []
        assert sf.units == parse_source(src).units


class TestStatementRecovery:
    def test_malformed_statement_boxed_as_opaque(self):
        sf, diags = parse("      PROGRAM P\n"
                          "      X = = 1.0\n"
                          "      Y = 2.0\n"
                          "      END\n")
        assert records("      PROGRAM P\n"
                       "      X = = 1.0\n"
                       "      Y = 2.0\n"
                       "      END\n") == [("parse-error", 2, "recovered")]
        box = sf.units[0].body[0]
        assert isinstance(box, ast.Opaque)
        assert box.text == "X = = 1.0"
        assert box.reason == "parse-error"
        # recovery resumes on the very next statement
        assert isinstance(sf.units[0].body[1], ast.Assign)

    def test_diagnostic_carries_location_and_excerpt(self):
        _, diags = parse("      PROGRAM P\n"
                         "      X = = 1.0\n"
                         "      END\n")
        (d,) = diags
        assert d.file == "t.f"
        assert d.line == 2
        assert "= =" in d.excerpt or "X = = 1.0" in d.excerpt
        assert d.severity in SEVERITIES

    def test_opaque_unparses_verbatim(self):
        src = ("      PROGRAM P\n"
               "      X = = 1.0\n"
               "      END\n")
        sf, _ = parse(src)
        prog = Program([sf], "t")
        prog.resolve()
        out = "".join(prog.unparse().values())
        assert "X = = 1.0" in out


class TestImplicitClose:
    def test_missing_do_label(self):
        assert records("      PROGRAM P\n"
                       "      DO 10 I = 1, 4\n"
                       "      X = 1.0\n"
                       "      END\n") == [("missing-do-label", 2, "note")]

    def test_missing_endif(self):
        src = ("      PROGRAM P\n"
               "      IF (X .GT. 0) THEN\n"
               "      X = 1.0\n"
               "      END\n")
        assert records(src) == [("missing-endif", 2, "note")]
        sf, _ = parse(src)
        assert isinstance(sf.units[0].body[0], ast.IfBlock)

    def test_missing_end(self):
        src = ("      PROGRAM P\n"
               "      X = 1.0\n")
        assert records(src) == [("missing-end", 1, "note")]
        sf, _ = parse(src)
        assert [u.name for u in sf.units] == ["P"]


class TestSkips:
    def test_stray_closer_dropped(self):
        src = ("      PROGRAM P\n"
               "      X = 1.0\n"
               "      ENDIF\n"
               "      END\n")
        assert records(src) == [("stray-closer", 3, "skipped")]
        sf, _ = parse(src)
        assert len(sf.units[0].body) == 1

    def test_orphan_continuation(self):
        src = ("     &X = 3.0\n"
               "      PROGRAM P\n"
               "      X = 1.0\n"
               "      END\n")
        assert records(src) == [("orphan-continuation", 1, "recovered"),
                                ("stray-statement", 1, "skipped")]

    def test_bad_label_field(self):
        src = ("  X9Z X = 1.0\n"
               "      PROGRAM P\n"
               "      Y = 1.0\n"
               "      END\n")
        assert records(src) == [("bad-label", 1, "recovered"),
                                ("stray-statement", 1, "skipped")]


class TestDiagnosticSchema:
    def test_dict_roundtrip(self):
        d = Diagnostic(code="parse-error", message="boom", file="a.f",
                       line=3, column=7, excerpt="X = =", severity="recovered")
        assert Diagnostic.from_dict(d.to_dict()) == d

    def test_describe_mentions_code_and_position(self):
        d = Diagnostic(code="bad-label", message="label field junk",
                       file="a.f", line=3, severity="recovered")
        text = d.describe()
        assert "bad-label" in text
        assert "a.f" in text and "3" in text

    def test_severities_are_closed(self):
        assert set(SEVERITIES) == {"recovered", "skipped", "note"}


def test_corpus_holds_the_23_dialect_programs():
    assert len(CORPUS_FILES) == 23


@pytest.mark.parametrize("path", CORPUS_FILES, ids=CORPUS_IDS)
class TestCorpusProperty:
    """Every corpus program parses clean or yields only recoverable
    diagnostics — never an uncaught exception."""

    def test_never_uncaught(self, path):
        with open(path) as fh:
            text = fh.read()
        result = parallelize_source({os.path.basename(path): text})
        for d in result["diagnostics"]:
            assert d["severity"] in SEVERITIES, d
        assert result["units"], "no program units recovered"
        assert result["output"].strip()

    def test_unparse_fixpoint(self, path):
        with open(path) as fh:
            text = fh.read()
        name = os.path.basename(path)
        sf, _ = parse_source_tolerant(text, name)
        prog = Program([sf], "fixpoint")
        prog.resolve()
        once = "".join(prog.unparse().values())
        sf2, _ = parse_source_tolerant(once, name)
        prog2 = Program([sf2], "fixpoint")
        prog2.resolve()
        assert "".join(prog2.unparse().values()) == once
