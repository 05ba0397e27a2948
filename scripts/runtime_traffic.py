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

The table in ``docs/runtime.md`` (*What the closures lower*) is read off
this output.  Tracing slows the pass about tenfold (~10 s).

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
