"""``ast.clone`` and the passes around it, held to three contracts.

* the clone contract: an equal tree that shares no statement,
  declaration, unit or list with the original, carries every copied
  node's whole ``__dict__`` (loop origins), shares every expression
  (literal spellings travel with them), pickles to the same
  compile-cache digest, and survives any tree the parser builds;
* expressions are immutable values: no expression class has a
  ``__dict__``, and nothing assigns an expression's field after
  construction anywhere in Table II's pipelines, the ingestion path or
  an execution on either backend;
* the no-op contract: a pass that changes nothing hands back the
  objects it was given;
* the kernel cannot regrow a second implementation.
"""

import ast as pyast

import pytest
from hypothesis import given, settings

from repro.analysis.affine import AffineForm
from repro.analysis.loops import assign_origins
from repro.analysis.normalize import normalize_unit
from repro.analysis.symbolic import Poly
from repro.annotations import ast as aast
from repro.annotations.inliner import AnnotationInliner
from repro.annotations.registry import AnnotationRegistry
from repro.annotations.reverse import ReverseInliner
from repro.errors import ReproError
from repro.experiments.pipeline import (CONFIGS, Config, prepare_base,
                                        run_config)
from repro.fortran import ast, symbols
from repro.fortran.fixedform.pipeline import parallelize_source
from repro.fuzz import GeneratorOptions, generate
from repro.inlining.conventional import ConventionalInliner
from repro.inlining.heuristics import InlinePolicy
from repro.perfect import all_benchmarks, get_benchmark
from repro.program import Program
from repro.runtime.backend import make_interpreter
from repro.runtime.compiler import _unit_digest
from tests.fortran.test_frontend_properties import CORPUS, _modules
from tests.strategies import exprs

ATOMS = (str, int, float, bool, type(None))


def _walk_pairs(a, b):
    """``(x, y)`` for every position of two same-shaped trees, down to
    the expressions (which are not entered)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        yield x, y
        if isinstance(x, ATOMS) or isinstance(x, ast.Expr):
            continue
        if isinstance(x, (list, tuple)):
            xs, ys = list(x), list(y)
        else:
            xs, ys = list(vars(x).values()), list(vars(y).values())
        assert len(xs) == len(ys), (x, y)
        stack.extend(zip(xs, ys))


def _mutable(root):
    """``{id: object}`` of every list and non-expression node under
    ``root`` — what a holder of the tree could mutate (tuples are looked
    through, expressions hold nothing mutable)."""
    return {id(x): x for x, _ in _walk_pairs(root, root)
            if not isinstance(x, ATOMS + (tuple, ast.Expr))}


def check_clone_contract(program):
    """Clone ``program`` and check the contract; returns the copied
    nodes and the shared expressions (the roots a statement holds)."""
    for unit in program.units:
        assign_origins(unit)
    before = program.unparse()
    copy = program.clone()
    assert copy.files == program.files
    theirs, ours = _mutable(program.files), _mutable(copy.files)
    assert len(theirs) == len(ours)
    assert not set(theirs) & set(ours)
    shared = []
    for x, y in _walk_pairs(program.files, copy.files):
        assert type(x) is type(y), (x, y)
        if isinstance(x, ast.Expr):
            assert x is y, (x, y)
            shared.append(x)
        elif isinstance(x, ATOMS):
            assert x is y or x == y, (x, y)
        elif not isinstance(x, (list, tuple)):
            # a loop's ``origin`` is there or absent on both sides
            assert list(vars(x)) == list(vars(y)), (x, y)
    for unit, twin in zip(program.units, copy.units):
        assert _unit_digest(unit) == _unit_digest(twin), unit.name
    # the copy is the callers' to ruin
    for twin in copy.units:
        for s in ast.walk_stmts(twin.body):
            if isinstance(s, ast.Assign):
                s.value = ast.IntLit(424242)
        twin.body.clear()
        twin.decls.clear()
    assert program.unparse() == before
    return theirs, shared


def _strict_corpus():
    for name, text in CORPUS.items():
        try:
            yield Program.from_source(text, name[:-2])
        except ReproError:
            continue  # a recovery program: tolerant-only by design


class TestCloneContract:
    def test_perfect_programs(self):
        origins = spellings = 0
        for b in all_benchmarks():
            copied, shared = check_clone_contract(b.program())
            for node in copied.values():
                origins += isinstance(node, ast.DoLoop) \
                    and hasattr(node, "origin")
            for root in shared:
                spellings += sum(isinstance(n, ast.RealLit)
                                 and n.text is not None
                                 for n in ast.walk_expr(root))
        # the non-field stamp and the compare=False field were on trial
        assert origins >= 100 and spellings >= 100, (origins, spellings)

    def test_corpus_programs(self):
        programs = list(_strict_corpus())
        assert len(programs) >= 10
        for program in programs:
            check_clone_contract(program)

    @pytest.mark.parametrize("options,first", [
        (GeneratorOptions(), 0),
        (GeneratorOptions(max_blocks=24, max_callees=6,
                          dialect="extended"), 1000),
    ], ids=["core", "extended"])
    def test_generated_programs(self, options, first):
        for seed in range(first, first + 40):
            check_clone_contract(generate(seed, options).program())

    @given(exprs())
    @settings(max_examples=100, deadline=None)
    def test_expressions(self, e):
        assert ast.clone(e) is e
        twin = ast.clone(ast.Assign(ast.Var("X"), e))
        assert twin.value is e

    def test_atoms_and_containers(self):
        for atom in ("X", 3, 2.5, True, None):
            assert ast.clone(atom) is atom
        assert ast.clone(()) == () and ast.clone([]) == []
        empty = []
        assert ast.clone(empty) is not empty
        loop = ast.DoLoop("I", ast.IntLit(1), ast.Var("N"), None, [])
        loop.origin = "S:0"
        real = ast.RealLit(1.0, "DOUBLE", "1.0D0")
        pair = (real, None)
        twins = ast.clone([loop, pair])
        assert twins[0].origin == "S:0" and twins[0] is not loop
        assert twins[0].body is not loop.body
        assert twins[0].stop is loop.stop
        # a tuple of shared items is itself shared
        assert twins[1] is pair and twins[1][0].text == "1.0D0"
        arm = (None, [ast.Continue()])
        twin_arm = ast.clone(arm)
        assert twin_arm is not arm and twin_arm[1] is not arm[1]

    def test_aliasing_is_not_preserved(self):
        # a statement referenced twice is two statements in the copy; an
        # expression referenced twice stays one value
        stmt = ast.Assign(ast.Var("X"), ast.IntLit(1))
        twins = ast.clone([stmt, stmt])
        assert twins[0] is not twins[1] and twins[0] == twins[1]
        assert stmt is not twins[0] and stmt is not twins[1]
        shared = ast.Var("X")
        twin = ast.clone(ast.BinOp("+", shared, shared))
        assert twin.left is twin.right is shared


class TestDeepTrees:
    """ROADMAP item 2(b): ``clone`` no longer dies before the parser."""

    def test_900_deep_chain(self):
        e = ast.Var("B")
        for _ in range(900):
            e = ast.BinOp("+", e, ast.Var("B"))
        stmt = ast.Assign(ast.Var("A"), e)
        twin = ast.clone(stmt)
        assert twin is not stmt and twin.value is e

    def test_walk_expr_3000_deep_chain(self):
        e = ast.Var("B")
        for k in range(3000):
            e = ast.BinOp("+", e, ast.IntLit(k))
        nodes = list(ast.walk_expr(e))
        # preorder: the 3000 operators, the leftmost leaf, then the
        # right operands from the innermost out
        assert len(nodes) == 6001 and nodes[0] is e
        assert nodes[3000] == ast.Var("B")
        assert nodes[3001:] == [ast.IntLit(k) for k in range(3000)]

    def test_400_operand_statement(self):
        cards = ["      PROGRAM P", "      A = B"]
        cards += ["     &+B"] * 399
        cards += ["      END", ""]
        program = Program.from_source("\n".join(cards))
        twin = program.clone()
        assert twin.unparse() == program.unparse()
        value = twin.main.body[0].value
        assert sum(isinstance(n, ast.Var)
                   for n in ast.walk_expr(value)) == 400


# ---------------------------------------------------------------------------
# expressions are immutable values
# ---------------------------------------------------------------------------

def _expr_classes():
    todo, out = [ast.Expr], []
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def _assign_once(self, name, value):
    try:
        getattr(self, name)
    except AttributeError:  # an empty slot: construction
        object.__setattr__(self, name, value)
        return
    raise AssertionError(f"{type(self).__name__}.{name} assigned again")


def _fill_key_once(self, name, value):
    """An affine form's one later assignment: its memo key, from None."""
    if name == "_key" and getattr(self, "_key", None) is None:
        object.__setattr__(self, name, value)
        return
    _assign_once(self, name, value)


class TestImmutableExpressions:
    def test_no_expression_class_has_a_dict(self):
        classes = _expr_classes()
        assert aast.Unknown in classes and aast.Unique in classes
        assert len(classes) == 13  # 11 Fortran, 2 annotation operators
        for cls in classes:
            assert "__dict__" not in dir(cls), cls
            assert cls.__subclasses__() == [], cls

    def test_nothing_assigns_an_expression_twice(self, monkeypatch):
        for cls in _expr_classes() + [Poly]:
            monkeypatch.setattr(cls, "__setattr__", _assign_once)
        monkeypatch.setattr(AffineForm, "__setattr__", _fill_key_once)
        with pytest.raises(AssertionError, match="Var.name"):
            ast.Var("X").name = "Y"
        with pytest.raises(AssertionError, match="Poly.terms"):
            Poly.const(1).terms = {}
        form = AffineForm({"I": 1}, Poly.const(0))
        assert form.key() == ((("I", 1),), ())
        with pytest.raises(AssertionError, match="AffineForm._key"):
            form._key = None
        with pytest.raises(AssertionError, match="AffineForm.coeffs"):
            form.coeffs = {}
        for b in all_benchmarks():
            base = prepare_base(b)
            for kind in CONFIGS:
                run_config(b, Config(kind), base).program.unparse()
        for name, text in CORPUS.items():
            parallelize_source({name: text})
        program = run_config(get_benchmark("trfd"), Config("annotation"),
                             prepare_base(get_benchmark("trfd"))).program
        for backend in ("tree", "compiled"):
            make_interpreter(program, backend,
                             inputs=get_benchmark("trfd").inputs).run()


# ---------------------------------------------------------------------------
# a pass that changes nothing allocates nothing
# ---------------------------------------------------------------------------

_NOTHING_TO_NORMALIZE = """\
      SUBROUTINE S(A, B, N)
      DIMENSION A(N), B(N)
      X = 2.0
      DO 10 I = 1, N
        IF (A(I) .GT. X) THEN
          A(I) = B(I)*X
        ELSE
          B(I) = A(I) + SQRT(X)
        ENDIF
        DO 5 J = 1, N
          A(J) = A(J) + B(I)
    5   CONTINUE
   10 CONTINUE
      CALL T(A, N)
      WRITE(6,*) A(1)
      END
"""


def _expressions(program):
    return {u.name: list(ast.walk_all_exprs(u.body)) for u in program.units}


def _resolved_by(monkeypatch, inliner, program):
    """Run ``inliner`` over ``program``; return its result and the names
    of the units whose calls it resolved again, one entry a resolution."""
    resolved = []
    build = symbols.build_symbol_table

    def counting(unit):
        resolved.append(unit.name)
        return build(unit)

    with monkeypatch.context() as patch:
        patch.setattr(symbols, "build_symbol_table", counting)
        result = inliner.run(program)
    return result, resolved


def _rebuilt(before, after):
    """Names of the units whose expression objects are not, one for one,
    the ones that went in."""
    return {name for name in before
            if len(before[name]) != len(after[name])
            or any(a is not b for a, b in zip(before[name], after[name]))}


class TestNoOpPasses:
    def test_normalize_keeps_every_statement(self):
        unit = Program.from_source(_NOTHING_TO_NORMALIZE).unit("S")
        assign_origins(unit)
        before = list(ast.walk_stmts(unit.body))
        assert len(before) == 11
        normalize_unit(unit)
        after = list(ast.walk_stmts(unit.body))
        assert len(after) == len(before)
        assert all(a is b for a, b in zip(before, after))

    def test_normalize_still_enters_nested_blocks(self):
        # the binding opens inside the loop, with the outer environment
        # empty: the skip must not hide it
        unit = Program.from_source(
            "      SUBROUTINE S(A, N)\n"
            "      DIMENSION A(N)\n"
            "      DO 10 I = 1, N\n"
            "        K = I + 1\n"
            "        A(K) = 0.0\n"
            "   10 CONTINUE\n"
            "      END\n").unit("S")
        normalize_unit(unit)
        assert unit.body[0].body[1].target == ast.ArrayRef(
            "A", (ast.BinOp("+", ast.Var("I"), ast.IntLit(1)),))

    @pytest.mark.parametrize("name", ["arc2d", "dyfesm", "trfd"])
    def test_inliners_with_no_qualifying_site(self, name, monkeypatch):
        benchmark = get_benchmark(name)
        nobody = InlinePolicy(
            unavailable=frozenset(benchmark.program().procedures))
        empty = AnnotationRegistry()
        for inliner, count in (
                (ConventionalInliner(nobody), "inlined_count"),
                (AnnotationInliner(empty), "inlined_count"),
                (ReverseInliner(empty), "reversed_count")):
            program = benchmark.program()
            before = _expressions(program)
            result, resolved = _resolved_by(monkeypatch, inliner, program)
            assert getattr(result, count) == 0
            assert resolved == []
            assert _rebuilt(before, _expressions(program)) == set()

    def test_only_the_touched_unit_is_resolved_again(self, monkeypatch):
        benchmark = get_benchmark("arc2d")
        for inliner in (
                ConventionalInliner(
                    InlinePolicy(unavailable=benchmark.library_units)),
                AnnotationInliner(benchmark.registry())):
            program = benchmark.program()
            before = _expressions(program)
            result, resolved = _resolved_by(monkeypatch, inliner, program)
            assert result.inlined_count > 0
            assert resolved == ["STEP"]
            assert _rebuilt(before, _expressions(program)) == {"STEP"}
        # reversal: STEP's blocks become calls again, nobody else moves
        before = _expressions(program)
        result, resolved = _resolved_by(
            monkeypatch, ReverseInliner(benchmark.registry()), program)
        assert result.reversed_count > 0
        assert resolved == ["STEP"]
        assert _rebuilt(before, _expressions(program)) == {"STEP"}

    def test_resolve_without_arguments_means_everything(self, monkeypatch):
        program = get_benchmark("arc2d").program()
        resolved = []
        build = symbols.build_symbol_table

        def counting(unit):
            resolved.append(unit.name)
            return build(unit)

        monkeypatch.setattr(symbols, "build_symbol_table", counting)
        program.resolve()
        assert sorted(resolved) == sorted(u.name for u in program.units)


# ---------------------------------------------------------------------------
# one kernel
# ---------------------------------------------------------------------------

def test_deepcopy_is_referenced_only_inside_ast_clone():
    offenders = []
    for module, tree in _modules():
        allowed = set()
        if module == "fortran/ast.py":
            for node in tree.body:
                if isinstance(node, pyast.FunctionDef) \
                        and node.name == "clone":
                    allowed = set(map(id, pyast.walk(node)))
        for node in pyast.walk(tree):
            named = (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None))
            if "deepcopy" in named and id(node) not in allowed:
                offenders.append((module, node.lineno))
    assert offenders == []
