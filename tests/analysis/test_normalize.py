"""Tests for the normalization passes (the transformations the reverse
inliner must tolerate)."""

from repro.analysis.loops import iter_loops
from repro.analysis.normalize import (forward_substitute_block,
                                      normalize_unit, substitute_inductions)
from repro.analysis.affine import extract
from repro.fortran import ast
from repro.fortran.parser import parse_expression as pe
from repro.fortran.parser import parse_source
from repro.fortran.symbols import build_symbol_table
from repro.fortran.unparser import unparse


def norm(src):
    unit = parse_source(src).units[0]
    return normalize_unit(unit)


class TestInductionSubstitution:
    def test_figure2_inner_loop(self):
        # the paper's PCINIT pattern: I = I + 1 then X2(I) = ...
        unit = norm(
            "      SUBROUTINE PCINIT(X2)\n"
            "      DIMENSION X2(*), FX(1000)\n"
            "      DO 200 J = 1, NSP\n"
            "        I = I + 1\n"
            "        X2(I) = FX(I)*2.0\n"
            "  200 CONTINUE\n"
            "      END\n")
        loop = next(iter_loops(unit.body)).loop
        # the increment is gone and X2's subscript is affine in J
        writes = [s for s in ast.walk_stmts(loop.body)
                  if isinstance(s, ast.Assign)
                  and isinstance(s.target, ast.ArrayRef)]
        assert len(writes) == 1
        form = extract(writes[0].target.subs[0], ["J"])
        assert form is not None and form.coeff("J") == 1
        # the final value of I is restored after the loop
        text = unparse(unit)
        assert "I = I+(NSP-1+1)" in text.replace(" + ", "+") or \
               "I+(NSP-1+1)" in text.replace(" ", "")

    def test_uses_before_increment(self):
        unit = norm(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 J = 1, N\n"
            "        A(K) = 1.0\n"
            "        K = K + 2\n"
            "   10 CONTINUE\n"
            "      END\n")
        loop = next(iter_loops(unit.body)).loop
        write = loop.body[0]
        form = extract(write.target.subs[0], ["J"])
        assert form is not None and form.coeff("J") == 2

    def test_variant_increment_rejected(self):
        # the Figure-2 outer-loop situation: increment amount varies
        src = ("      SUBROUTINE S\n"
               "      DIMENSION A(100)\n"
               "      DO 10 N = 1, M\n"
               "        I = I + NSP\n"
               "        A(I) = 0.0\n"
               "   10 CONTINUE\n"
               "      END\n")
        unit = norm(src)
        loop = next(iter_loops(unit.body)).loop
        # untouched: the increment statement is still there
        assert any(isinstance(s, ast.Assign) and isinstance(s.target, ast.Var)
                   and s.target.name == "I" for s in loop.body)

    def test_two_increments_rejected(self):
        unit = norm(
            "      SUBROUTINE S\n"
            "      DO 10 J = 1, N\n"
            "        I = I + 1\n"
            "        I = I + 1\n"
            "   10 CONTINUE\n"
            "      END\n")
        loop = next(iter_loops(unit.body)).loop
        assert len(loop.body) >= 2

    def test_loop_var_itself_not_subst(self):
        unit = norm(
            "      SUBROUTINE S\n"
            "      DO 10 J = 1, N\n"
            "        J2 = J\n"
            "   10 CONTINUE\n"
            "      END\n")
        assert unit is not None  # merely must not crash or rewrite J

    def test_semantics_value(self):
        # closed form must equal sequential execution: simulate manually
        unit = norm(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      DO 10 J = 1, 5\n"
            "        I = I + 3\n"
            "        A(I) = 1.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        loop = next(iter_loops(unit.body)).loop
        write = [s for s in loop.body if isinstance(s, ast.Assign)
                 and isinstance(s.target, ast.ArrayRef)][0]
        form = extract(write.target.subs[0], ["J"])
        # I0 + 3*(J-1+1) = I0 + 3J
        assert form.coeff("J") == 3


class TestForwardSubstitution:
    def test_figure7_pattern(self):
        # ID = IDBEGS(ISS) + 1 + K flows into the use
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION IDBEGS(50), RHSB(10000)\n"
            "      DO 30 K = 1, NEP\n"
            "        ID = IDBEGS(ISS) + 1 + K\n"
            "        RHSB(ID) = 0.0\n"
            "   30 CONTINUE\n"
            "      END\n").units[0]
        table = build_symbol_table(unit)
        forward_substitute_block(unit.body, table)
        loop = next(iter_loops(unit.body)).loop
        write = [s for s in loop.body if isinstance(s, ast.Assign)
                 and isinstance(s.target, ast.ArrayRef)][0]
        form = extract(write.target.subs[0], ["K"])
        assert form is not None and form.coeff("K") == 1

    def test_invalidation_on_redefinition(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      N = 5\n"
            "      N = M\n"
            "      A(N) = 0.0\n"
            "      END\n").units[0]
        forward_substitute_block(unit.body, build_symbol_table(unit))
        write = unit.body[-1]
        assert write.target.subs[0] == pe("M")

    def test_invalidation_on_dependent_write(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      N = M + 1\n"
            "      M = 7\n"
            "      A(N) = 0.0\n"
            "      END\n").units[0]
        forward_substitute_block(unit.body, build_symbol_table(unit))
        write = unit.body[-1]
        assert write.target.subs[0] == pe("N")  # must NOT be M+1

    def test_invalidation_on_array_write(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100), IX(10)\n"
            "      N = IX(3)\n"
            "      IX(3) = 9\n"
            "      A(N) = 0.0\n"
            "      END\n").units[0]
        forward_substitute_block(unit.body, build_symbol_table(unit))
        assert unit.body[-1].target.subs[0] == pe("N")

    def test_call_clears_env(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      COMMON /C/ M\n"
            "      N = M\n"
            "      CALL TOUCH\n"
            "      A(N) = 0.0\n"
            "      END\n").units[0]
        forward_substitute_block(unit.body, build_symbol_table(unit))
        assert unit.body[-1].target.subs[0] == pe("N")

    def test_label_is_a_join_point(self):
        # control can reach label 10 from the GOTO carrying N=5, so the
        # fall-through binding N=7 must not substitute into A(N)
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      N = 5\n"
            "      GO TO 10\n"
            "      N = 7\n"
            "   10 A(N) = 0.0\n"
            "      END\n").units[0]
        forward_substitute_block(unit.body, build_symbol_table(unit))
        assert unit.body[-1].target.subs[0] == pe("N")

    def test_computed_goto_arms_do_not_leak_bindings(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      K = 1\n"
            "      GO TO (10, 20), K\n"
            "      K = 2\n"
            "   10 K = K + 3\n"
            "   20 A(K) = 0.0\n"
            "      END\n").units[0]
        forward_substitute_block(unit.body, build_symbol_table(unit))
        # at runtime K is 4 (1, jump to 10, +3); substituting the linear
        # chain 1 -> 2 -> 2+3 would store through A(5)
        assert unit.body[-1].target.subs[0] == pe("K")

    def test_opaque_statement_clears_env(self):
        from repro.fortran.fixedform import parse_source_tolerant
        sf, _ = parse_source_tolerant(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      N = 5\n"
            "      X = = 1.0\n"
            "      A(N) = 0.0\n"
            "      END\n")
        unit = sf.units[0]
        assert isinstance(unit.body[1], ast.Opaque)
        forward_substitute_block(unit.body, build_symbol_table(unit))
        # the boxed statement may write anything, N included
        assert unit.body[-1].target.subs[0] == pe("N")

    def test_opaque_statement_in_a_do_body_clears_env(self):
        # ENCODE writes N in every iteration, and the next iteration's
        # A(K) runs after it: substituting K = N + 1 into the body (as
        # the body's own pass would with the outer bindings) stores
        # through the wrong element
        from repro.fortran.fixedform import parse_source_tolerant

        def loop_target(body):
            sf, _ = parse_source_tolerant(
                "      PROGRAM P\n"
                "      REAL A(10), X\n"
                "      READ (5, *) N\n"
                "      K = N + 1\n"
                "      DO 10 I = 1, 3\n"
                f"{body}"
                "   10 CONTINUE\n"
                "      END\n")
            unit = sf.units[0]
            forward_substitute_block(unit.body, build_symbol_table(unit))
            return next(iter_loops(unit.body)).loop.body[0].target.subs[0]

        assert loop_target("        A(K) = 0.0\n") == pe("N+1")
        assert loop_target("        A(K) = 0.0\n"
                           "        ENCODE (4, 20, N) X\n") == pe("K")

    def test_real_scalar_not_substituted(self):
        unit = parse_source(
            "      SUBROUTINE S\n"
            "      DIMENSION A(100)\n"
            "      X = Y*2.0\n"
            "      A(1) = X\n"
            "      END\n").units[0]
        forward_substitute_block(unit.body, build_symbol_table(unit))
        assert unit.body[-1].value == pe("X")


class TestParameterPropagation:
    def test_parameter_folds(self):
        unit = norm(
            "      SUBROUTINE S\n"
            "      PARAMETER (N=10)\n"
            "      DIMENSION A(N)\n"
            "      DO 10 I = 1, N\n"
            "        A(I) = 0.0\n"
            "   10 CONTINUE\n"
            "      END\n")
        loop = next(iter_loops(unit.body)).loop
        assert loop.stop == ast.IntLit(10)
