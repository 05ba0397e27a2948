"""Symbolic integer polynomial algebra over Fortran expressions.

Dependence analysis reasons about array subscripts as multivariate
polynomials with integer coefficients.  The variables of a polynomial are

* plain scalar variable names (``"I"``, ``"NSP"``), and
* *atoms*: opaque sub-expressions the algebra cannot see inside — array
  element reads (``IX(7)``), function calls, divisions, and anything
  non-polynomial.  An atom is identified by the canonical unparse string of
  its expression, so two occurrences of the same source expression compare
  equal (e.g. the ``IX(7)`` in both operands of a difference cancels —
  exactly the precision the paper's Figure-2 discussion requires), while
  distinct expressions (``IX(7)`` vs ``IX(8)``) yield an unresolvable
  symbolic difference that keeps the analyzer conservative.

Every atom records the set of scalar names appearing inside it
(``names_inside``), which the affine extractor uses to detect subscripts
that are non-affine in a loop index (``A(IDX(I))`` — subscripted
subscripts).

The canonical form is a mapping from monomials (sorted tuples of variable
tokens, with repetition for powers) to integer coefficients.  Only exact
integer arithmetic is performed; anything else becomes an atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.fortran import ast
from repro.fortran.unparser import expr_to_str

# a variable token is either a scalar name or an atom key "@<canonical>"
VarToken = str
Monomial = Tuple[VarToken, ...]

_ATOM_PREFIX = "@"


def atom_token(e: ast.Expr) -> VarToken:
    return _ATOM_PREFIX + expr_to_str(e)


def is_atom(token: VarToken) -> bool:
    return token.startswith(_ATOM_PREFIX)


@dataclass(slots=True)
class Poly:
    """A multivariate polynomial with integer coefficients (canonical).
    ``terms`` maps monomials to nonzero coefficients; the empty monomial
    ``()`` holds the constant term.  ``atom_names`` maps each atom token
    to the scalar names mentioned inside it.

    Immutable by contract: every operation returns a new polynomial and
    nothing assigns a field (or edits ``terms``) after construction.  It
    is not a frozen dataclass because a frozen ``__init__`` goes through
    ``object.__setattr__``, about three times the cost of a plain one."""

    terms: Mapping[Monomial, int]
    atom_names: Mapping[VarToken, FrozenSet[str]]

    # -- constructors ---------------------------------------------------
    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({(): c} if c else {}, {})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({(name.upper(),): 1}, {})

    @staticmethod
    def atom(e: ast.Expr) -> "Poly":
        token = atom_token(e)
        inside = frozenset(
            n.name.upper() for n in ast.walk_expr(e)
            if isinstance(n, ast.Var)) | frozenset(
            n.name.upper() for n in ast.walk_expr(e)
            if isinstance(n, ast.ArrayRef))
        return Poly({(token,): 1}, {token: inside})

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Optional[int]:
        if self.is_constant():
            return self.terms.get((), 0)
        return None

    def variables(self) -> FrozenSet[VarToken]:
        out = set()
        for m in self.terms:
            out.update(m)
        return frozenset(out)

    def names_mentioned(self) -> FrozenSet[str]:
        """All scalar names this polynomial depends on, looking through
        atoms."""
        out = set()
        for token in self.variables():
            if is_atom(token):
                out.update(self.atom_names.get(token, frozenset()))
            else:
                out.add(token)
        return frozenset(out)

    def coeff(self, token: VarToken) -> int:
        """Coefficient of the degree-1 monomial of ``token``."""
        return self.terms.get((token.upper(),), 0)

    def without(self, tokens: Iterable[VarToken]) -> "Poly":
        """Drop every monomial that mentions any of ``tokens``."""
        drop = {t.upper() for t in tokens}
        kept = {m: c for m, c in self.terms.items()
                if not any(v in drop for v in m)}
        return Poly(kept, dict(self.atom_names))

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        terms: Dict[Monomial, int] = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
            if terms[m] == 0:
                del terms[m]
        return Poly(terms, {**self.atom_names, **other.atom_names})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()},
                    dict(self.atom_names))

    def __mul__(self, other: "Poly") -> "Poly":
        terms: Dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
                if terms[m] == 0:
                    del terms[m]
        return Poly(terms, {**self.atom_names, **other.atom_names})

    def scale(self, k: int) -> "Poly":
        if k == 0:
            return Poly.const(0)
        return Poly({m: c * k for m, c in self.terms.items()},
                    dict(self.atom_names))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "Poly(0)"
        parts = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(m) if m else "1"
            parts.append(f"{c}*{mono}")
        return "Poly(" + " + ".join(parts) + ")"

    # -- conversion back to AST -------------------------------------------
    def to_expr(self) -> ast.Expr:
        """Render the polynomial as a Fortran expression AST."""
        from repro.fortran.parser import parse_expression

        def mono_expr(m: Monomial, c: int) -> ast.Expr:
            factors: list = []
            if abs(c) != 1 or not m:
                factors.append(ast.IntLit(abs(c)))
            for token in m:
                if is_atom(token):
                    factors.append(parse_expression(token[1:]))
                else:
                    factors.append(ast.Var(token))
            e = factors[0]
            for f in factors[1:]:
                e = ast.BinOp("*", e, f)
            return e

        terms = sorted(self.terms.items())
        result: Optional[ast.Expr] = None
        for m, c in terms:
            piece = mono_expr(m, c)
            if result is None:
                result = ast.UnOp("-", piece) if c < 0 else piece
            elif c < 0:
                result = ast.BinOp("-", result, piece)
            else:
                result = ast.BinOp("+", result, piece)
        return result if result is not None else ast.IntLit(0)


def from_expr(e: ast.Expr) -> Poly:
    """Convert an integer-valued expression to canonical polynomial form.

    Non-polynomial constructs (division, non-constant powers, array reads,
    function calls, real literals) become atoms, never errors — the
    consumers degrade to conservative answers when atoms remain.
    """
    if isinstance(e, ast.IntLit):
        return Poly.const(e.value)
    if isinstance(e, ast.Var):
        return Poly.var(e.name)
    if isinstance(e, ast.UnOp) and e.op == "-":
        return -from_expr(e.operand)
    if isinstance(e, ast.UnOp) and e.op == "+":
        return from_expr(e.operand)
    if isinstance(e, ast.BinOp):
        if e.op == "+":
            return from_expr(e.left) + from_expr(e.right)
        if e.op == "-":
            return from_expr(e.left) - from_expr(e.right)
        if e.op == "*":
            return from_expr(e.left) * from_expr(e.right)
        if e.op == "**":
            exp = from_expr(e.right).constant_value()
            if exp is not None and 0 <= exp <= 4:
                base = from_expr(e.left)
                out = Poly.const(1)
                for _ in range(exp):
                    out = out * base
                return out
        if e.op == "/":
            num = from_expr(e.left)
            den = from_expr(e.right).constant_value()
            if den is not None and den != 0:
                if all(c % den == 0 for c in num.terms.values()):
                    return Poly({m: c // den for m, c in num.terms.items()},
                                dict(num.atom_names))
    return Poly.atom(e)


def exprs_equivalent(a: ast.Expr, b: ast.Expr) -> bool:
    """Structural-modulo-arithmetic equivalence of two expressions."""
    if a == b:
        return True
    return from_expr(a) == from_expr(b)
