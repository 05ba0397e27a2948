"""Fixed-form Fortran 77 code generation from the AST.

The unparser is the inverse of :mod:`repro.fortran.parser`:
``parse_source(unparse(ast))`` reproduces an equal AST for every tree the
parser can produce (property-tested).  Statement text that exceeds column
72 is split onto continuation lines; comment lines (OpenMP directives and
inline tags) are exempt from the column limit, matching what the fixed-form
reader accepts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.fortran import ast

#: operator precedence levels for minimal parenthesization (higher binds
#: tighter); mirrors the parser's grammar
_PREC = {
    ".EQV.": 1, ".NEQV.": 1,
    ".OR.": 2,
    ".AND.": 3,
    # .NOT. is 4
    "==": 5, "/=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5,
    "//": 6,
    "+": 7, "-": 7,
    "*": 8, "/": 8,
    "**": 9,
}

#: canonical operator -> Fortran 77 spelling
_F77_OPS = {
    "==": ".EQ.", "/=": ".NE.", "<": ".LT.", "<=": ".LE.",
    ">": ".GT.", ">=": ".GE.",
}


def expr_to_str(e: ast.Expr) -> str:
    """Render an expression with minimal parentheses (F77 spellings)."""
    return _expr(e, 0)


def _expr(e: ast.Expr, parent_prec: int) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.RealLit):
        return _real_text(e)
    if isinstance(e, ast.StringLit):
        return _quoted(e.value)
    if isinstance(e, ast.LogicalLit):
        return ".TRUE." if e.value else ".FALSE."
    if isinstance(e, ast.Var):
        return e.name
    if isinstance(e, ast.AltReturn):
        return f"*{e.target}"
    if isinstance(e, (ast.ArrayRef, ast.FuncRef)):
        args = e.subs if isinstance(e, ast.ArrayRef) else e.args
        inner = ",".join(_expr(a, 0) for a in args)
        return f"{e.name}({inner})"
    if isinstance(e, ast.RangeExpr):
        lo = _expr(e.lo, 0) if e.lo is not None else ""
        hi = _expr(e.hi, 0) if e.hi is not None else "*" if e.lo is None else ""
        text = f"{lo}:{hi}" if (e.lo is not None or e.hi is not None) else "*"
        if e.step is not None:
            text += f":{_expr(e.step, 0)}"
        return text
    if isinstance(e, ast.UnOp):
        if e.op == ".NOT.":
            inner = _expr(e.operand, 4)
            text = f".NOT.{inner}"
            return f"({text})" if parent_prec > 4 else text
        inner = _expr(e.operand, 8)  # sign binds between +- and */
        text = f"{e.op}{inner}"
        # a leading sign is legal at the start of an additive chain
        # (parent_prec <= 7); multiplicative/power contexts and right
        # operands of +/- (which pass prec 8) need parentheses
        return f"({text})" if parent_prec >= 8 else text
    if isinstance(e, ast.BinOp):
        prec = _PREC[e.op]
        op = _F77_OPS.get(e.op, e.op)
        if e.op == "**":
            # right-associative
            left = _expr(e.left, prec + 1)
            right = _expr(e.right, prec)
        else:
            left = _expr(e.left, prec)
            # left-associative: right operand needs one level more
            right = _expr(e.right, prec + 1)
        text = f"{left}{op}{right}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"cannot unparse expression {e!r}")


def _quoted(text: str) -> str:
    """A character literal: an apostrophe inside it is written twice."""
    return "'" + text.replace("'", "''") + "'"


def _real_text(e: ast.RealLit) -> str:
    if e.text is not None:
        return e.text
    text = repr(e.value)
    if e.kind == "DOUBLE":
        if "e" in text:
            return text.upper().replace("E", "D")
        return text + "D0"
    return text


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def comment(self, text: str) -> None:
        self.lines.append(text)

    def stmt(self, text: str, label: Optional[int] = None,
             indent: int = 0) -> None:
        label_field = f"{label:>5}" if label is not None else "     "
        body = " " * indent + text
        line = label_field + " " + body
        if len(line) <= 72:
            self.lines.append(line.rstrip())
            return
        # split onto continuation lines at column 72
        head_width = 72 - 6
        first, rest = line[6:6 + head_width], line[6 + head_width:]
        self.lines.append((label_field + " " + first).rstrip("\n"))
        cont_width = 72 - 6
        while rest:
            chunk, rest = rest[:cont_width], rest[cont_width:]
            self.lines.append("     &" + chunk)


def unparse(node, indent_step: int = 2) -> str:
    """Unparse a SourceFile, ProgramUnit, or statement list to source text."""
    w = _Writer()
    if isinstance(node, ast.SourceFile):
        for u in node.units:
            _unit(w, u, indent_step)
    elif isinstance(node, ast.ProgramUnit):
        _unit(w, node, indent_step)
    elif isinstance(node, list):
        _body(w, node, 0, indent_step)
    elif isinstance(node, ast.Stmt):
        _body(w, [node], 0, indent_step)
    else:
        raise TypeError(f"cannot unparse {type(node).__name__}")
    return "\n".join(w.lines) + "\n"


def _unit(w: _Writer, u: ast.ProgramUnit, step: int) -> None:
    header = u.kind
    if u.kind == "FUNCTION" and u.result_type:
        header = f"{u.result_type} FUNCTION"
    text = f"{header} {u.name}"
    if u.kind != "PROGRAM" and u.params is not None:
        text += "(" + ",".join(u.params) + ")"
    w.stmt(text)
    for d in u.decls:
        _decl(w, d, step)
    _body(w, u.body, step, step)
    w.stmt("END")


def _entities(entities: Sequence[ast.Entity]) -> str:
    out = []
    for e in entities:
        text = e.name
        if e.char_len is not None:
            text += "*(*)" if e.char_len == -1 else f"*{e.char_len}"
        if e.dims is not None:
            text += "(" + ",".join(_dim(d) for d in e.dims) + ")"
        out.append(text)
    return ",".join(out)


def _dim(d: ast.Dim) -> str:
    upper = "*" if d.upper is None else expr_to_str(d.upper)
    if d.lower == ast.IntLit(1):
        return upper
    return f"{expr_to_str(d.lower)}:{upper}"


def _decl(w: _Writer, d: ast.Decl, indent: int) -> None:
    if isinstance(d, ast.TypeDecl):
        typename = d.typename
        if d.typename == "CHARACTER" and d.char_len is not None:
            typename = ("CHARACTER*(*)" if d.char_len == -1
                        else f"CHARACTER*{d.char_len}")
        w.stmt(f"{typename} {_entities(d.entities)}", indent=indent)
    elif isinstance(d, ast.DimensionDecl):
        w.stmt(f"DIMENSION {_entities(d.entities)}", indent=indent)
    elif isinstance(d, ast.CommonDecl):
        block = f"/{d.block}/" if d.block else ""
        w.stmt(f"COMMON {block}{_entities(d.entities)}", indent=indent)
    elif isinstance(d, ast.ParameterDecl):
        inner = ",".join(f"{n}={expr_to_str(e)}" for n, e in d.assignments)
        w.stmt(f"PARAMETER ({inner})", indent=indent)
    elif isinstance(d, ast.DataDecl):
        targets = ",".join(expr_to_str(t) for t in d.targets)
        values = ",".join(expr_to_str(v) for v in d.values)
        w.stmt(f"DATA {targets}/{values}/", indent=indent)
    elif isinstance(d, ast.SaveDecl):
        w.stmt("SAVE" + (" " + ",".join(d.names) if d.names else ""),
               indent=indent)
    elif isinstance(d, ast.ExternalDecl):
        w.stmt(f"EXTERNAL {','.join(d.names)}", indent=indent)
    elif isinstance(d, ast.IntrinsicDecl):
        w.stmt(f"INTRINSIC {','.join(d.names)}", indent=indent)
    elif isinstance(d, ast.EquivalenceDecl):
        groups = ",".join(
            "(" + ",".join(expr_to_str(r) for r in g) + ")"
            for g in d.groups)
        w.stmt(f"EQUIVALENCE {groups}", indent=indent)
    elif isinstance(d, ast.ImplicitDecl):
        w.stmt(f"IMPLICIT {d.text}", indent=indent)
    else:
        raise TypeError(f"cannot unparse declaration {d!r}")


def _body(w: _Writer, body: Sequence[ast.Stmt], indent: int,
          step: int) -> None:
    for s in body:
        _stmt(w, s, indent, step)


def _is_simple(s: ast.Stmt) -> bool:
    """Statements permitted inside a one-line logical IF."""
    return isinstance(s, (ast.Assign, ast.CallStmt, ast.Goto, ast.Continue,
                          ast.Return, ast.Stop, ast.IoStmt,
                          ast.ComputedGoto, ast.AssignedGoto,
                          ast.LabelAssign))


def _stmt(w: _Writer, s: ast.Stmt, indent: int, step: int) -> None:
    if isinstance(s, ast.Assign):
        w.stmt(f"{expr_to_str(s.target)} = {expr_to_str(s.value)}",
               s.label, indent)
    elif isinstance(s, ast.IfBlock):
        _if(w, s, indent, step)
    elif isinstance(s, ast.DoLoop):
        _do(w, s, indent, step)
    elif isinstance(s, ast.CallStmt):
        args = ",".join(expr_to_str(a) for a in s.args)
        w.stmt(f"CALL {s.name}({args})", s.label, indent)
    elif isinstance(s, ast.Goto):
        w.stmt(f"GO TO {s.target}", s.label, indent)
    elif isinstance(s, ast.ComputedGoto):
        targets = ",".join(str(t) for t in s.targets)
        w.stmt(f"GO TO ({targets}), {expr_to_str(s.index)}", s.label, indent)
    elif isinstance(s, ast.AssignedGoto):
        text = f"GO TO {s.var}"
        if s.targets:
            text += ", (" + ",".join(str(t) for t in s.targets) + ")"
        w.stmt(text, s.label, indent)
    elif isinstance(s, ast.LabelAssign):
        w.stmt(f"ASSIGN {s.target_label} TO {s.var}", s.label, indent)
    elif isinstance(s, ast.EntryStmt):
        text = f"ENTRY {s.name}"
        if s.params:
            text += "(" + ",".join(s.params) + ")"
        w.stmt(text, s.label, indent)
    elif isinstance(s, ast.Opaque):
        w.stmt(s.text, s.label, indent)
    elif isinstance(s, ast.Continue):
        w.stmt("CONTINUE", s.label, indent)
    elif isinstance(s, ast.Return):
        if s.alt is not None:
            w.stmt(f"RETURN {expr_to_str(s.alt)}", s.label, indent)
        else:
            w.stmt("RETURN", s.label, indent)
    elif isinstance(s, ast.Stop):
        text = "STOP"
        if s.message is not None:
            text += " " + _quoted(s.message)
        w.stmt(text, s.label, indent)
    elif isinstance(s, ast.IoStmt):
        items = ",".join(expr_to_str(i) for i in s.items)
        if s.kind == "PRINT":
            text = f"PRINT {s.control}"
            if items:
                text += f",{items}"
        else:
            text = f"{s.kind}({s.control})"
            if items:
                text += f" {items}"
        w.stmt(text, s.label, indent)
    elif isinstance(s, ast.OmpParallelDo):
        _omp(w, s, indent, step)
    elif isinstance(s, ast.TaggedBlock):
        actuals = "|".join(expr_to_str(a) for a in s.actuals)
        w.comment(f"C@INLINE BEGIN {s.callee} {s.site_id} {actuals}".rstrip())
        _body(w, s.body, indent, step)
        w.comment(f"C@INLINE END {s.site_id}")
    else:
        raise TypeError(f"cannot unparse statement {s!r}")


def _if(w: _Writer, s: ast.IfBlock, indent: int, step: int) -> None:
    first_cond, first_body = s.arms[0]
    if (len(s.arms) == 1 and len(first_body) == 1
            and _is_simple(first_body[0]) and first_body[0].label is None
            and first_cond is not None):
        # logical IF
        inner = _Writer()
        _stmt(inner, first_body[0], 0, step)
        text = inner.lines[0][6:].strip()
        if len(inner.lines) == 1:
            w.stmt(f"IF ({expr_to_str(first_cond)}) {text}", s.label, indent)
            return
    for idx, (cond, body) in enumerate(s.arms):
        if idx == 0:
            w.stmt(f"IF ({expr_to_str(cond)}) THEN", s.label, indent)
        elif cond is not None:
            w.stmt(f"ELSE IF ({expr_to_str(cond)}) THEN", None, indent)
        else:
            w.stmt("ELSE", None, indent)
        _body(w, body, indent + step, step)
    w.stmt("END IF", None, indent)


def _do_header_text(s: ast.DoLoop) -> str:
    rng = f"{s.var} = {expr_to_str(s.start)}, {expr_to_str(s.stop)}"
    if s.step is not None:
        rng += f", {expr_to_str(s.step)}"
    return rng


def _terminates(body: Sequence[ast.Stmt], label: int) -> bool:
    """True when ``body`` ends at a statement carrying ``label`` (the
    classic label-terminated DO form can then be emitted faithfully).
    Nested loops sharing one terminator (``DO 200 ... DO 200 ... 200``)
    recurse: the labelled statement lives in the innermost body."""
    if not body:
        return False
    last = body[-1]
    if getattr(last, "label", None) == label and _is_simple(last):
        return True
    if isinstance(last, ast.DoLoop) and last.term_label == label:
        return _terminates(last.body, label)
    return False


def _do(w: _Writer, s: ast.DoLoop, indent: int, step: int) -> None:
    if s.term_label is not None and _terminates(s.body, s.term_label):
        w.stmt(f"DO {s.term_label} {_do_header_text(s)}", s.label, indent)
        # the labelled terminator is unparsed as part of the body; nested
        # loops sharing the terminator emit it exactly once (innermost)
        _body(w, s.body, indent + step, step)
    else:
        w.stmt(f"DO {_do_header_text(s)}", s.label, indent)
        _body(w, s.body, indent + step, step)
        w.stmt("END DO", None, indent)


def _omp(w: _Writer, s: ast.OmpParallelDo, indent: int, step: int) -> None:
    clauses = " DEFAULT(SHARED)"
    if s.private:
        clauses += f" PRIVATE({','.join(s.private)})"
    for op, var in s.reductions:
        clauses += f" REDUCTION({op}:{var})"
    if s.schedule:
        clauses += f" SCHEDULE({s.schedule})"
    w.comment(f"!$OMP PARALLEL DO{clauses}")
    _stmt(w, s.loop, indent, step)
    w.comment("!$OMP END PARALLEL DO")
