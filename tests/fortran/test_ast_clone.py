"""``ast.clone`` and the passes around it, held to two contracts.

* the clone contract: an equal tree that shares nothing mutable with
  the original, carries every node's whole ``__dict__`` (loop origins,
  literal spellings), pickles to the same compile-cache digest, and
  survives any tree the parser builds;
* the no-op contract: a pass that changes nothing hands back the
  objects it was given;
* the kernel cannot regrow a second implementation.
"""

import ast as pyast

import pytest
from hypothesis import given, settings

from repro.analysis.loops import assign_origins
from repro.analysis.normalize import normalize_unit
from repro.annotations.inliner import AnnotationInliner
from repro.annotations.registry import AnnotationRegistry
from repro.annotations.reverse import ReverseInliner
from repro.errors import ReproError
from repro.fortran import ast
from repro.fuzz import GeneratorOptions, generate
from repro.inlining.conventional import ConventionalInliner
from repro.inlining.heuristics import InlinePolicy
from repro.perfect import all_benchmarks, get_benchmark
from repro.program import Program
from repro.runtime.compiler import _unit_digest
from tests.fortran.test_frontend_properties import CORPUS, _modules
from tests.strategies import exprs

ATOMS = (str, int, float, bool, type(None))


def _children(x):
    return x if isinstance(x, (list, tuple)) else vars(x).values()


def _reachable(root):
    """``{id: object}`` of every list and node under ``root`` — what a
    holder of the tree could mutate (tuples are looked through)."""
    seen = {}
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, ATOMS):
            continue
        if not isinstance(x, tuple):
            seen[id(x)] = x
        stack.extend(_children(x))
    return seen


def _assert_same_shape(a, b):
    """Node for node: same type, same ``__dict__`` keys (so a loop's
    ``origin`` is there or absent on both sides), atoms shared."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        assert type(x) is type(y), (x, y)
        if isinstance(x, ATOMS):
            assert x is y or x == y, (x, y)
            continue
        if not isinstance(x, (list, tuple)):
            assert list(vars(x)) == list(vars(y)), (x, y)
        xs, ys = list(_children(x)), list(_children(y))
        assert len(xs) == len(ys), (x, y)
        stack.extend(zip(xs, ys))


def check_clone_contract(program):
    for unit in program.units:
        assign_origins(unit)
    before = program.unparse()
    copy = program.clone()
    assert copy.files == program.files
    theirs, ours = _reachable(program.files), _reachable(copy.files)
    assert len(theirs) == len(ours)
    assert not set(theirs) & set(ours)
    _assert_same_shape(program.files, copy.files)
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
    return theirs


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
            for node in check_clone_contract(b.program()).values():
                origins += isinstance(node, ast.DoLoop) \
                    and hasattr(node, "origin")
                spellings += isinstance(node, ast.RealLit) \
                    and node.text is not None
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
        twin = ast.clone(e)
        assert twin == e
        assert not set(_reachable(e)) & set(_reachable(twin))
        _assert_same_shape(e, twin)

    def test_atoms_and_containers(self):
        for atom in ("X", 3, 2.5, True, None):
            assert ast.clone(atom) is atom
        assert ast.clone(()) == () and ast.clone([]) == []
        loop = ast.DoLoop("I", ast.IntLit(1), ast.Var("N"), None, [])
        loop.origin = "S:0"
        real = ast.RealLit(1.0, "DOUBLE", "1.0D0")
        twins = ast.clone([loop, (real, None)])
        assert twins[0].origin == "S:0" and twins[0] is not loop
        assert twins[1][0].text == "1.0D0" and twins[1][0] is not real

    def test_aliasing_is_not_preserved(self):
        shared = ast.Var("X")
        twin = ast.clone(ast.BinOp("+", shared, shared))
        assert twin.left == twin.right and twin.left is not twin.right


class TestDeepTrees:
    """ROADMAP item 2(b): ``clone`` no longer dies before the parser."""

    def test_900_deep_chain(self):
        e = ast.Var("B")
        for _ in range(900):
            e = ast.BinOp("+", e, ast.Var("B"))
        twin = ast.clone(e)
        depth = 0
        while isinstance(twin, ast.BinOp):
            assert twin is not e and twin.right == ast.Var("B")
            twin, e, depth = twin.left, e.left, depth + 1
        assert depth == 900 and twin == ast.Var("B")

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
    def test_inliners_with_no_qualifying_site(self, name):
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
            result = inliner.run(program)
            assert getattr(result, count) == 0
            assert _rebuilt(before, _expressions(program)) == set()

    def test_only_the_touched_unit_is_resolved_again(self):
        benchmark = get_benchmark("arc2d")
        for inliner in (
                ConventionalInliner(
                    InlinePolicy(unavailable=benchmark.library_units)),
                AnnotationInliner(benchmark.registry())):
            program = benchmark.program()
            before = _expressions(program)
            assert inliner.run(program).inlined_count > 0
            assert _rebuilt(before, _expressions(program)) == {"STEP"}
        # reversal: STEP's blocks become calls again, nobody else moves
        before = _expressions(program)
        result = ReverseInliner(benchmark.registry()).run(program)
        assert result.reversed_count > 0
        assert _rebuilt(before, _expressions(program)) == {"STEP"}

    def test_resolve_without_arguments_means_everything(self):
        program = get_benchmark("arc2d").program()
        before = _expressions(program)
        program.resolve()
        assert _rebuilt(before, _expressions(program)) == set(before)


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
