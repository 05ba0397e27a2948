"""Symbol tables, implicit typing and name resolution.

Fortran 77 has no reserved words and no syntactic distinction between
``A(I)`` as an array element and as a function call; resolution therefore
needs declarations.  :func:`build_symbol_table` collects everything a unit
declares (types, dimensions, COMMON membership, PARAMETER constants,
formals) and applies the implicit typing rules (I-N => INTEGER, otherwise
REAL) for undeclared names.

:func:`resolve_calls` is the whole-file pass that rewrites
:class:`~repro.fortran.ast.ArrayRef` nodes into
:class:`~repro.fortran.ast.FuncRef` when the name is an intrinsic or a known
user function, which every later analysis relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Set, Tuple

from repro.errors import SemanticError
from repro.fortran import ast
from repro.fortran.intrinsics import INTEGER_RESULT, is_intrinsic


@dataclass
class VarInfo:
    """Everything known statically about one name in one program unit."""

    name: str
    typename: str  # INTEGER | REAL | DOUBLE PRECISION | LOGICAL | CHARACTER
    dims: Optional[Tuple[ast.Dim, ...]] = None
    is_formal: bool = False
    common_block: Optional[str] = None
    #: position (0-based, in declaration order) within its COMMON block
    common_index: int = -1
    parameter_value: Optional[ast.Expr] = None
    char_len: Optional[int] = None
    saved: bool = False
    explicit_type: bool = False
    #: name appears in an EQUIVALENCE group (storage-associated with other
    #: names, so per-array dependence reasoning is unsound for it)
    equivalenced: bool = False

    @property
    def is_array(self) -> bool:
        return self.dims is not None

    @property
    def is_parameter(self) -> bool:
        return self.parameter_value is not None

    @property
    def is_assumed_size(self) -> bool:
        return bool(self.dims) and self.dims[-1].upper is None


def implicit_type(name: str) -> str:
    return "INTEGER" if name[0] in "IJKLMN" else "REAL"


@dataclass
class SymbolTable:
    unit_name: str
    variables: Dict[str, VarInfo] = field(default_factory=dict)
    #: COMMON block name -> ordered entity names
    common_blocks: Dict[str, List[str]] = field(default_factory=dict)
    implicit_none: bool = False
    formals: List[str] = field(default_factory=list)

    def info(self, name: str) -> VarInfo:
        """Return (creating on first use, per implicit typing) the info for
        ``name``."""
        name = name.upper()
        if name not in self.variables:
            if self.implicit_none:
                raise SemanticError(
                    f"{self.unit_name}: {name} used without declaration "
                    f"under IMPLICIT NONE")
            self.variables[name] = VarInfo(name, implicit_type(name))
        return self.variables[name]

    def declared(self, name: str) -> Optional[VarInfo]:
        return self.variables.get(name.upper())

    def is_array(self, name: str) -> bool:
        v = self.variables.get(name.upper())
        return v is not None and v.is_array


def build_symbol_table(unit: ast.ProgramUnit) -> SymbolTable:
    """Collect declarations of one program unit into a SymbolTable."""
    table = SymbolTable(unit.name)
    table.formals = [p.upper() for p in unit.params]

    def ensure(name: str) -> VarInfo:
        name = name.upper()
        if name not in table.variables:
            table.variables[name] = VarInfo(name, implicit_type(name))
        return table.variables[name]

    def apply_entity(e: ast.Entity, typename: Optional[str] = None,
                     default_len: Optional[int] = None) -> VarInfo:
        v = ensure(e.name)
        if typename is not None:
            v.typename = typename
            v.explicit_type = True
        if e.dims is not None:
            if v.dims is not None and v.dims != e.dims:
                raise SemanticError(
                    f"{unit.name}: conflicting dimensions for {e.name}")
            v.dims = e.dims
        if e.char_len is not None:
            v.char_len = e.char_len
        elif default_len is not None and v.char_len is None:
            v.char_len = default_len
        return v

    for d in unit.decls:
        if isinstance(d, ast.ImplicitDecl):
            if d.text.strip().upper() == "NONE":
                table.implicit_none = True
        elif isinstance(d, ast.TypeDecl):
            for e in d.entities:
                apply_entity(e, d.typename, d.char_len)
        elif isinstance(d, ast.DimensionDecl):
            for e in d.entities:
                apply_entity(e)
        elif isinstance(d, ast.CommonDecl):
            block = d.block.upper()
            names = table.common_blocks.setdefault(block, [])
            for e in d.entities:
                v = apply_entity(e)
                v.common_block = block
                v.common_index = len(names)
                names.append(v.name)
        elif isinstance(d, ast.ParameterDecl):
            for name, expr in d.assignments:
                v = ensure(name)
                v.parameter_value = expr
        elif isinstance(d, ast.SaveDecl):
            for name in d.names:
                ensure(name).saved = True
        elif isinstance(d, ast.EquivalenceDecl):
            for group in d.groups:
                for ref in group:
                    if isinstance(ref, (ast.Var, ast.ArrayRef)):
                        ensure(ref.name).equivalenced = True
        # EXTERNAL/INTRINSIC/DATA decls do not affect variable typing here
    for p in table.formals:
        v = ensure(p)
        v.is_formal = True
    if unit.kind == "FUNCTION":
        v = ensure(unit.name)
        if unit.result_type:
            v.typename = unit.result_type
            v.explicit_type = True
    return table


def externals_of(unit: ast.ProgramUnit) -> Set[str]:
    names: Set[str] = set()
    for d in unit.find_decls(ast.ExternalDecl):
        names.update(n.upper() for n in d.names)
    return names


def collect_procedures(source: ast.SourceFile) -> Dict[str, ast.ProgramUnit]:
    """Map procedure name -> defining unit for subroutines and functions."""
    return {u.name.upper(): u for u in source.units
            if u.kind in ("SUBROUTINE", "FUNCTION")}


def function_names(source: ast.SourceFile) -> Set[str]:
    return {u.name.upper() for u in source.units if u.kind == "FUNCTION"}


def resolve_calls(source: ast.SourceFile,
                  extra_functions: Optional[Set[str]] = None,
                  units: Optional[Collection[str]] = None) -> ast.SourceFile:
    """Rewrite ``NAME(args)`` references into :class:`FuncRef` in place,
    in every unit or only in the named ``units``.

    A parenthesized name reference is a function call exactly when the name
    is not a declared array in the enclosing unit and is either an
    intrinsic, a FUNCTION unit in this file, an EXTERNAL name, or a caller-
    supplied extra (for functions living in other files of a multi-file
    application).
    """
    funcs = function_names(source) | (extra_functions or set())
    for unit in source.units:
        if units is not None and unit.name not in units:
            continue
        table = build_symbol_table(unit)
        ext = externals_of(unit)

        def rewrite(e: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(e, ast.ArrayRef):
                name = e.name.upper()
                if table.is_array(name):
                    return None
                if name in funcs or name in ext or is_intrinsic(name):
                    return ast.FuncRef(name, e.subs)
                # undeclared paren reference: Fortran would call this an
                # implicitly-typed statement function or an error; in our
                # subset it must be an array declared via DIMENSION/type
                if table.declared(name) is None and not table.implicit_none:
                    # treat as external function reference (linker resolves)
                    return ast.FuncRef(name, e.subs)
            return None

        unit.body = ast.map_stmt_exprs(unit.body, rewrite)
    return source


def expr_type(e: ast.Expr, table: SymbolTable) -> str:
    """Compute the static type of an expression (best effort)."""
    if isinstance(e, ast.IntLit):
        return "INTEGER"
    if isinstance(e, ast.RealLit):
        return "DOUBLE PRECISION" if e.kind == "DOUBLE" else "REAL"
    if isinstance(e, ast.StringLit):
        return "CHARACTER"
    if isinstance(e, ast.LogicalLit):
        return "LOGICAL"
    if isinstance(e, ast.Var):
        return table.info(e.name).typename
    if isinstance(e, ast.ArrayRef):
        return table.info(e.name).typename
    if isinstance(e, ast.FuncRef):
        name = e.name.upper()
        if is_intrinsic(name):
            if name in INTEGER_RESULT:
                return "INTEGER"
            if name.startswith("D"):
                return "DOUBLE PRECISION"
            # generic intrinsics inherit their argument type
            if e.args:
                return expr_type(e.args[0], table)
            return "REAL"
        return implicit_type(name)
    if isinstance(e, ast.UnOp):
        if e.op == ".NOT.":
            return "LOGICAL"
        return expr_type(e.operand, table)
    if isinstance(e, ast.BinOp):
        if e.op in ("==", "/=", "<", "<=", ">", ">=",
                    ".AND.", ".OR.", ".EQV.", ".NEQV."):
            return "LOGICAL"
        lt = expr_type(e.left, table)
        rt = expr_type(e.right, table)
        for t in ("DOUBLE PRECISION", "REAL", "INTEGER"):
            if lt == t or rt == t:
                return t
        return lt
    return "REAL"
