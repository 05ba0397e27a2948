"""Unit tests for the fixed-form reader and the statement tokenizer."""

import pytest

from repro.errors import LexError
from repro.fortran.lexer import tokenize
from repro.fortran.source import condense, read_logical_lines
from repro.fortran.tokens import TokenType


def types(stmt):
    return [t.type for t in tokenize(condense(stmt))][:-1]


def values(stmt):
    return [t.value for t in tokenize(condense(stmt))][:-1]


class TestCondense:
    def test_blanks_removed(self):
        assert condense("DO 200 J = 1, NSP") == "DO200J=1,NSP"

    def test_case_folded(self):
        assert condense("call foo(x)") == "CALLFOO(X)"

    def test_string_preserved(self):
        assert condense("WRITE(6,*) ' F ELEMENT '") == "WRITE(6,*)' F ELEMENT '"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            condense("X = 'oops")


class TestTokenizer:
    def test_names_and_ops(self):
        assert values("X2(I)=FX(I)*TSTEP**2/2.D0/DSUMM(N)") == [
            "X2", "(", "I", ")", "=", "FX", "(", "I", ")", "*", "TSTEP",
            "**", "2", "/", "2.D0", "/", "DSUMM", "(", "N", ")"]

    def test_dot_operators(self):
        assert values("IF(IERR.NE.0)") == ["IF", "(", "IERR", ".NE.", "0", ")"]

    def test_logical_literals(self):
        toks = tokenize("X=.TRUE..AND..NOT.Y")
        assert [t.value for t in toks][:-1] == \
            ["X", "=", ".TRUE.", ".AND.", ".NOT.", "Y"]
        assert toks[2].type is TokenType.LOGICAL

    def test_real_vs_dot_op_ambiguity(self):
        # 1.EQ.2 must lex as INT .EQ. INT, not REAL(1.) E Q . 2
        assert values("1.EQ.2") == ["1", ".EQ.", "2"]

    def test_real_literals(self):
        for text, ttype in [("1.5", TokenType.REAL), ("2.D0", TokenType.REAL),
                            (".5", TokenType.REAL), ("3.", TokenType.REAL),
                            ("1E6", TokenType.REAL), ("42", TokenType.INT)]:
            toks = tokenize(text)
            assert toks[0].type is ttype, text
            assert toks[0].value == text

    def test_double_exponent(self):
        toks = tokenize("TSTEP**2/2.D0")
        assert toks[4].value == "2.D0"
        assert toks[4].type is TokenType.REAL

    def test_signed_exponent(self):
        assert values("1.0E-3")[0] == "1.0E-3"

    def test_f90_relationals(self):
        assert values("A<=B") == ["A", "<=", "B"]

    def test_stray_char(self):
        with pytest.raises(LexError):
            tokenize("A?B")


class TestReader:
    def test_labels_and_continuation(self):
        src = (
            "      SUBROUTINE F(X)\n"
            "C a plain comment\n"
            "  200 X = 1 +\n"
            "     &    2\n"
            "      END\n")
        lines = read_logical_lines(src)
        assert [l.label for l in lines] == [None, 200, None]
        assert condense(lines[1].text) == "X=1+2"

    def test_comment_styles(self):
        src = "C one\nc two\n* three\n! four\n      X = 1\n      END\n"
        lines = read_logical_lines(src)
        assert len(lines) == 2

    def test_inline_comment_stripped(self):
        lines = read_logical_lines("      X = 1 ! trailing\n")
        assert condense(lines[0].text) == "X=1"

    def test_bang_in_string_not_comment(self):
        lines = read_logical_lines("      S = 'a!b'\n")
        assert "'a!b'" in lines[0].text

    def test_omp_directive_attached(self):
        src = ("!$OMP PARALLEL DO\n"
               "      DO 10 I = 1, N\n"
               "   10 CONTINUE\n")
        lines = read_logical_lines(src)
        assert lines[0].leading[0].kind == "omp"
        assert lines[0].leading[0].text.startswith("PARALLEL DO")

    def test_inline_tag_attached(self):
        src = ("C@INLINE BEGIN MATMLT 3 PP(1,1,KS-1)|PHIT(1,1)\n"
               "      X = 1\n"
               "C@INLINE END 3\n"
               "      Y = 2\n")
        lines = read_logical_lines(src)
        assert lines[0].leading[0].kind == "tag"
        assert lines[1].leading[0].kind == "tag"

    def test_column_73_ignored(self):
        stmt = "      X = 1" + " " * 61 + "XXXX"
        lines = read_logical_lines(stmt + "\n")
        assert condense(lines[0].text) == "X=1"

    def test_continuation_without_statement(self):
        with pytest.raises(LexError):
            read_logical_lines("     & X\n")

    def test_bad_label(self):
        with pytest.raises(LexError):
            read_logical_lines("  2X3 CONTINUE\n")


def test_every_dyfesm_card_tokenizes():
    from repro.perfect import get_benchmark
    source = "\n".join(get_benchmark("dyfesm").sources.values())
    cards = [condense(line.text) for line in read_logical_lines(source)]
    assert sum(len(tokenize(card)) for card in cards) > 4 * len(cards)
