"""The conventional (textual) inliner.

Walks every unit, finds CALL sites the policy accepts, and splices in the
callee body with:

* callee locals renamed site-uniquely (``T$I3``);
* statement labels renumbered into a fresh range;
* formals substituted per the :mod:`repro.inlining.binding` plan
  (including the caller-wide array linearization the paper describes);
* the callee's local declarations, COMMON blocks and PARAMETERs merged
  into the caller;
* a trailing RETURN dropped.

Loops inside the spliced body keep their ``origin`` stamps, so Table II
counts a loop once no matter how many copies inlining created.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import build_callgraph
from repro.errors import InlineError
from repro.fortran import ast
from repro.fortran.symbols import SymbolTable
from repro.inlining.binding import (BindingPlan, linear_index, plan_bindings,
                                    total_size)
from repro.inlining.heuristics import InlinePolicy
from repro.program import Program


@dataclass
class SiteRecord:
    caller: str
    callee: str
    inlined: bool
    reason: str = ""


@dataclass
class InlineResult:
    sites: List[SiteRecord] = field(default_factory=list)

    @property
    def inlined_count(self) -> int:
        return sum(1 for s in self.sites if s.inlined)

    def reasons(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.sites:
            if not s.inlined:
                out[s.reason] = out.get(s.reason, 0) + 1
        return out


@dataclass
class ConventionalInliner:
    policy: InlinePolicy = field(default_factory=InlinePolicy)

    def run(self, program: Program) -> InlineResult:
        result = InlineResult()
        graph = build_callgraph(program)
        site_counter = [0]
        for unit in program.units:
            self._inline_in_unit(program, unit, graph, result, site_counter)
        # re-run resolution where code arrived: it may use functions
        program.resolve({s.caller for s in result.sites if s.inlined})
        return result

    # ------------------------------------------------------------------
    def _inline_in_unit(self, program: Program, unit: ast.ProgramUnit,
                        graph, result: InlineResult,
                        site_counter: List[int]) -> None:
        #: arrays to relinearize once the unit is fully processed, with
        #: their original multi-dimensional declarations captured at plan
        #: time (declarations are rewritten at the end)
        pending_linearize: Dict[str, Tuple[ast.Dim, ...]] = {}

        def process(body: List[ast.Stmt], in_loop: bool) -> List[ast.Stmt]:
            out: List[ast.Stmt] = []
            for s in body:
                if isinstance(s, ast.DoLoop):
                    s.body[:] = process(s.body, True)
                    out.append(s)
                elif isinstance(s, ast.IfBlock):
                    for _, arm in s.arms:
                        arm[:] = process(arm, in_loop)
                    out.append(s)
                elif isinstance(s, ast.CallStmt):
                    expansion = self._try_site(program, unit, s, in_loop,
                                               graph, result, site_counter,
                                               pending_linearize)
                    if expansion is None:
                        out.append(s)
                    else:
                        out.extend(expansion)
                else:
                    out.append(s)
            return out

        unit.body = process(unit.body, False)
        if pending_linearize:
            self._linearize_caller_arrays(unit, pending_linearize)
        program.invalidate(unit)

    # ------------------------------------------------------------------
    def _try_site(self, program: Program, caller: ast.ProgramUnit,
                  call: ast.CallStmt, in_loop: bool, graph,
                  result: InlineResult, site_counter: List[int],
                  pending_linearize: Dict[str, Tuple[ast.Dim, ...]]
                  ) -> Optional[List[ast.Stmt]]:
        reason = self.policy.rejection_reason(program, graph, call.name,
                                              in_loop)
        if reason is not None:
            result.sites.append(SiteRecord(caller.name, call.name.upper(),
                                           False, reason))
            return None
        callee = program.procedures[call.name.upper()]
        site_counter[0] += 1
        site_id = site_counter[0]
        try:
            stmts = self._expand(program, caller, callee, call, site_id,
                                 pending_linearize)
        except InlineError as exc:
            result.sites.append(SiteRecord(caller.name, call.name.upper(),
                                           False, f"binding: {exc}"))
            return None
        result.sites.append(SiteRecord(caller.name, call.name.upper(), True))
        return stmts

    # ------------------------------------------------------------------
    def _expand(self, program: Program, caller: ast.ProgramUnit,
                callee: ast.ProgramUnit, call: ast.CallStmt, site_id: int,
                pending_linearize: Dict[str, Tuple[ast.Dim, ...]]
                ) -> List[ast.Stmt]:
        callee_table = program.symtab(callee)
        caller_table = program.symtab(caller)

        self._merge_commons(caller, callee, caller_table)

        rename = self._local_rename_map(callee, callee_table, site_id)
        plan = plan_bindings(callee.name, callee.params, call.args,
                             callee_table, caller_table, rename, site_id)

        body = ast.clone(callee.body)
        if body and isinstance(body[-1], ast.Return) \
                and body[-1].label is None:
            body = body[:-1]
        body = self._apply_renames(body, rename, plan, callee_table)
        body = self._renumber_labels(body, caller, site_id)

        self._merge_declarations(caller, callee, callee_table, rename, plan)

        for name in plan.linearize_caller:
            if name not in pending_linearize:
                dims = caller_table.info(name).dims
                if dims is None:
                    raise InlineError(f"cannot linearize scalar {name}")
                pending_linearize[name] = dims
        program.invalidate(caller)
        return plan.pre + body + plan.post

    # ------------------------------------------------------------------
    def _local_rename_map(self, callee: ast.ProgramUnit,
                          table: SymbolTable, site_id: int) -> Dict[str, str]:
        from repro.analysis.defuse import collect_accesses
        rename: Dict[str, str] = {}
        formals = set(table.formals)
        names: Set[str] = set(table.variables)
        # implicitly-declared locals (used without a declaration) must be
        # renamed too, or they would capture caller variables
        acc = collect_accesses(callee.body, table)
        names |= acc.scalar_reads | acc.scalar_writes
        names |= {a for a, _, _ in acc.array_accesses}
        for name in sorted(names):
            info = table.variables.get(name)
            if name in formals:
                continue
            if info is not None and info.common_block is not None:
                continue
            rename[name] = f"{name}$I{site_id}"
        return rename

    # ------------------------------------------------------------------
    def _apply_renames(self, body: List[ast.Stmt], rename: Dict[str, str],
                       plan: BindingPlan,
                       callee_table: SymbolTable) -> List[ast.Stmt]:

        def rewrite(e: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(e, ast.Var):
                u = e.name.upper()
                if u in plan.scalar_map:
                    return ast.clone(plan.scalar_map[u])
                if u in plan.array_direct:
                    name, base, _ = plan.array_direct[u]
                    return ast.Var(name)  # whole-array reference
                if u in plan.array_linear:
                    return ast.Var(plan.array_linear[u].actual_name)
                if u in rename:
                    return ast.Var(rename[u])
                return None
            if isinstance(e, ast.ArrayRef):
                u = e.name.upper()
                if u in plan.array_direct:
                    name, base, lowers = plan.array_direct[u]
                    subs = tuple(
                        _offset_sub(sub, b, lo)
                        for sub, b, lo in zip(e.subs, base, lowers))
                    return ast.ArrayRef(name, subs)
                if u in plan.array_linear:
                    lb = plan.array_linear[u]
                    lin = linear_index(e.subs, lb.formal_dims)
                    if lb.base_offset != ast.IntLit(0):
                        lin = ast.BinOp("+", ast.clone(lb.base_offset), lin)
                    return ast.ArrayRef(lb.actual_name, (lin,))
                if u in plan.scalar_map:
                    raise InlineError(
                        f"scalar formal {u} used with subscripts")
                if u in rename:
                    return ast.ArrayRef(rename[u], e.subs)
                return None
            if isinstance(e, ast.FuncRef) and e.name.upper() in rename:
                return ast.FuncRef(rename[e.name.upper()], e.args)
            return None

        body = ast.map_stmt_exprs(body, rewrite)

        def fix_loop_vars(s: ast.Stmt) -> Optional[List[ast.Stmt]]:
            if not isinstance(s, ast.DoLoop):
                return None
            var = s.var.upper()
            if var in rename:
                s.var = rename[var]
            elif var in plan.scalar_map:
                repl = plan.scalar_map[var]
                if isinstance(repl, ast.Var):
                    s.var = repl.name
                else:
                    raise InlineError(
                        f"DO variable {var} is a formal bound to a "
                        f"non-variable actual")
            return None

        return ast.map_stmts(body, fix_loop_vars)

    # ------------------------------------------------------------------
    def _renumber_labels(self, body: List[ast.Stmt],
                         caller: ast.ProgramUnit,
                         site_id: int) -> List[ast.Stmt]:
        used: Set[int] = set()
        for s in ast.walk_stmts(caller.body):
            if getattr(s, "label", None):
                used.add(s.label)
            if isinstance(s, ast.DoLoop) and s.term_label:
                used.add(s.term_label)
        mapping: Dict[int, int] = {}
        next_label = [max(used, default=0) // 1000 * 1000
                      + 1000 * (1 + site_id % 50)]

        def fresh(old: int) -> int:
            if old not in mapping:
                next_label[0] += 1
                mapping[old] = next_label[0]
            return mapping[old]

        def fix(s: ast.Stmt) -> Optional[List[ast.Stmt]]:
            if getattr(s, "label", None):
                s.label = fresh(s.label)
            if isinstance(s, ast.DoLoop) and s.term_label:
                s.term_label = fresh(s.term_label)
            if isinstance(s, ast.Goto):
                return [ast.Goto(fresh(s.target), s.label)]
            return None

        return ast.map_stmts(body, fix)

    # ------------------------------------------------------------------
    def _merge_commons(self, caller: ast.ProgramUnit,
                       callee: ast.ProgramUnit,
                       caller_table: SymbolTable) -> None:
        caller_blocks = {d.block.upper(): d for d in
                         caller.find_decls(ast.CommonDecl)}
        for d in callee.find_decls(ast.CommonDecl):
            mine = caller_blocks.get(d.block.upper())
            if mine is None:
                caller.decls.append(ast.clone(d))
            elif mine.entities != d.entities:
                raise InlineError(
                    f"COMMON /{d.block}/ layout differs between "
                    f"{caller.name} and {callee.name}")

    # ------------------------------------------------------------------
    def _merge_declarations(self, caller: ast.ProgramUnit,
                            callee: ast.ProgramUnit,
                            callee_table: SymbolTable,
                            rename: Dict[str, str],
                            plan: BindingPlan) -> None:
        for name, new_name in sorted(rename.items()):
            info = callee_table.variables.get(name)
            if info is None or info.is_parameter:
                continue
            dims = info.dims
            entity = ast.Entity(new_name, ast.clone(dims) if dims else None)
            caller.decls.append(ast.TypeDecl(info.typename, [entity]))
        # PARAMETER constants used by the callee body
        for d in callee.find_decls(ast.ParameterDecl):
            pairs = [(rename.get(n.upper(), n.upper()), ast.clone(e))
                     for n, e in d.assignments]
            caller.decls.append(ast.ParameterDecl(pairs))
        for d in callee.find_decls(ast.DataDecl):
            targets = []
            for t in d.targets:
                def rw(e: ast.Expr) -> Optional[ast.Expr]:
                    if isinstance(e, ast.Var) and e.name.upper() in rename:
                        return ast.Var(rename[e.name.upper()])
                    if isinstance(e, ast.ArrayRef) \
                            and e.name.upper() in rename:
                        return ast.ArrayRef(rename[e.name.upper()], e.subs)
                    return None
                targets.append(ast.map_expr(ast.clone(t), rw))
            if targets:
                caller.decls.append(ast.DataDecl(targets,
                                                 ast.clone(d.values)))
        caller.decls.extend(plan.temp_decls)

    # ------------------------------------------------------------------
    def _linearize_caller_arrays(
            self, caller: ast.ProgramUnit,
            pending: Dict[str, Tuple[ast.Dim, ...]]) -> None:
        """Redeclare each array 1-D and rewrite every reference in the
        caller through the column-major formula (the paper's 'without any
        explicit shape information' behaviour).  Runs once per unit after
        all sites are expanded; references that are already 1-D (emitted
        by the per-site linear bindings) are left alone."""
        dims_of = {name: dims for name, dims in pending.items()
                   if len(dims) > 1}
        if not dims_of:
            return

        def rewrite(e: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(e, ast.ArrayRef) and e.name.upper() in dims_of:
                dims = dims_of[e.name.upper()]
                if len(e.subs) == len(dims):
                    return ast.ArrayRef(e.name,
                                        (linear_index(e.subs, dims),))
                if len(e.subs) == 1:
                    return None  # already linearized by a site binding
                raise InlineError(f"rank mismatch linearizing {e.name}")
            return None

        caller.body = ast.map_stmt_exprs(caller.body, rewrite)

        # rewrite declarations to a single flat dimension
        for name, dims in dims_of.items():
            flat = total_size(dims)
            new_dims = (ast.Dim(ast.IntLit(1),
                                flat if flat is not None else None),)
            self._replace_entity_dims(caller, name, new_dims)

    def _replace_entity_dims(self, caller: ast.ProgramUnit, name: str,
                             new_dims: Tuple[ast.Dim, ...]) -> None:
        for d in caller.decls:
            entities = getattr(d, "entities", None)
            if entities is None:
                continue
            for e in entities:
                if e.name.upper() == name and e.dims is not None:
                    e.dims = ast.clone(new_dims)


def _offset_sub(sub: ast.Expr, base: ast.Expr, lower: ast.Expr) -> ast.Expr:
    """``base + (sub - lower)``, simplified when base == lower."""
    if base == lower:
        return ast.clone(sub)
    return ast.BinOp("+", ast.clone(base),
                     ast.BinOp("-", ast.clone(sub), ast.clone(lower)))
