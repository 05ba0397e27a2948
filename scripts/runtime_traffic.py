#!/usr/bin/env python
"""What one warm Figure 20 pass runs on the compiled backend's closures,
and what it leaves to the tree-walker.

Runs the 12 benchmarks' first cells once to warm the process, clears
the pipeline and compile caches as the ``figure20`` bench workload does
before every pass, then traces one pass over all 72 cells with
``sys.setprofile`` and prints two tables:

1. every function of ``runtime/compiler.py`` that ran, by qualified name
   and first line, with its calls — the closures are the instructions
   and expression evaluators a template holds;
2. the walked traffic: the statements ``_emit_walked``'s instruction
   handed to ``Interpreter._exec_stmt`` and the expressions ``_walked``
   handed to ``Interpreter._eval``, by node kind.

A third table comes from one more pass, untraced, with the kernels and
``compile_expr`` counted: the launches of each vector kernel (its unit,
its loop, the trip counts it ran and its statements), the trip-count
histogram of the committed launches, and the ``compile_expr`` calls
over the pass's units.

The tables in ``docs/runtime.md`` (*What the closures lower*, *Anatomy
of a launch*) are read off this output.  Tracing slows the pass about
tenfold (~10 s).

Usage: PYTHONPATH=src python scripts/runtime_traffic.py
"""

import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.figure20 import (MACHINES, Figure20Task,  # noqa: E402
                                        clear_pipeline_cache, run_cell_task)
from repro.experiments.pipeline import CONFIGS  # noqa: E402
from repro.fortran import ast  # noqa: E402
from repro.perfect import all_benchmarks  # noqa: E402
from repro.runtime import compiler  # noqa: E402
from repro.runtime.interpreter import Interpreter  # noqa: E402



def nested(function, name):
    """The code of the function ``name`` defined inside ``function``."""
    return next(c for c in function.__code__.co_consts
                if getattr(c, "co_name", None) == name)


#: the tree-walker's entry points -> the compiled code that hands it work
WALKERS = {Interpreter._exec_stmt.__code__: nested(compiler._emit_walked,
                                                    "instr"),
           Interpreter._eval.__code__: nested(compiler._walked, "charged")}


def kind(node) -> str:
    """A walked node's kind: its class, with an operator or I/O kind."""
    detail = getattr(node, "op", None) or getattr(node, "kind", None)
    if isinstance(node, ast.FuncRef):
        detail = node.name
    return type(node).__name__ + (f" {detail}" if detail else "")


def trace_pass(cells):
    closures, walked = Counter(), Counter()

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename == compiler.__file__:
            closures[code] += 1
        elif code in WALKERS and frame.f_back.f_code is WALKERS[code]:
            node = frame.f_locals["s" if "s" in frame.f_locals else "e"]
            walked[kind(node)] += 1

    clear_pipeline_cache()
    compiler.clear_compile_cache()
    sys.setprofile(profile)
    try:
        for b, m, config in cells:
            run_cell_task(Figure20Task(b, m, config))
    finally:
        sys.setprofile(None)
    return closures, walked


def kernel_pass(cells):
    """(per kernel: [its description, {trips: launches}, refusals],
    compile_expr calls, units lowered) over one untraced pass."""
    kernels, counts = {}, Counter()
    build, lower, compile_unit = (compiler._try_vectorize,
                                  compiler.compile_expr,
                                  compiler._compile_unit)

    def try_vectorize(s, cc, *args):
        kernel = build(s, cc, *args)
        if kernel is None:
            return None
        label = f" {s.term_label}" if s.term_label else ""
        entry = kernels[id(kernel)] = [
            f"{cc.unit.name} DO{label} {s.var}", Counter(), 0,
            sum(1 for _ in ast.walk_stmts(s.body))]

        def counted(ex, fr, var, trips, start, step):
            committed = kernel(ex, fr, var, trips, start, step)
            if committed:
                entry[1][trips] += 1
            else:
                entry[2] += 1
            return committed
        return counted

    def compile_expr(e, cc):
        counts["compile_expr"] += 1
        return lower(e, cc)

    def count_unit(unit, honor):
        counts["units"] += 1
        return compile_unit(unit, honor)

    clear_pipeline_cache()
    compiler.clear_compile_cache()
    compiler._try_vectorize = try_vectorize
    compiler.compile_expr = compile_expr
    compiler._compile_unit = count_unit
    try:
        for b, m, config in cells:
            run_cell_task(Figure20Task(b, m, config))
    finally:
        compiler._try_vectorize, compiler.compile_expr, \
            compiler._compile_unit = build, lower, compile_unit
    return list(kernels.values()), counts["compile_expr"], counts["units"]


def print_kernels(kernels, lowered, units) -> None:
    # one row per loop: the templates of its unit in every program,
    # configuration and directive mode launch the same kernel
    rows = {}
    for name, runs, refused, stmts in kernels:
        row = rows.setdefault(name, [Counter(), 0, stmts])
        row[0] += runs
        row[1] += refused
    trips = sum((row[0] for row in rows.values()), Counter())
    print(f"kernel launches in one pass: {sum(trips.values()):,} committed, "
          f"{sum(row[1] for row in rows.values()):,} refused, by kernel:")
    print("   launches  refused  trips        stmts  kernel")
    for name, (runs, refused, stmts) in sorted(
            rows.items(), key=lambda kv: (-sum(kv[1][0].values()), kv[0])):
        if runs or refused:
            span = f"{min(runs)}..{max(runs)}" if runs else "-"
            print(f"  {sum(runs.values()):>9,}  {refused:>7}  {span:<11}  "
                  f"{stmts:>5}  {name}")
    print("trip counts of the committed launches:")
    low, high = 1, 4
    while low <= max(trips, default=0):
        launches = sum(n for t, n in trips.items() if low <= t <= high)
        print(f"  {low:>5}..{high:<6} {launches:>7,}")
        low, high = high + 1, high * 2
    print(f"compile_expr calls over the pass's {units} units: {lowered:,}")


def main() -> int:
    benchmarks = all_benchmarks()
    for b in benchmarks:
        run_cell_task(Figure20Task(b, MACHINES[0], CONFIGS[0]))
    closures, walked = trace_pass([(b, m, c) for b in benchmarks
                                   for m in MACHINES for c in CONFIGS])
    print("compiled code, calls in one pass:")
    for code, calls in sorted(closures.items(),
                              key=lambda kv: (-kv[1], kv[0].co_firstlineno)):
        name = getattr(code, "co_qualname", code.co_name)  # 3.11+
        print(f"  {calls:>9,}  {name} (line {code.co_firstlineno})")
    print("walked by the tree-walker, roots in one pass:")
    for name, calls in walked.most_common():
        print(f"  {calls:>9,}  {name}")
    if not walked:
        print("          0  (nothing)")
    print_kernels(*kernel_pass([(b, m, c) for b in benchmarks
                                for m in MACHINES for c in CONFIGS]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
