"""Differential correctness testing — the mechanized version of the
paper's "runtime testers" (Section III-D).

A parallelized program is validated by executing it three ways and
comparing *all* observable state (every COMMON block plus the output
log):

1. **serial** — directives ignored (the original semantics);
2. **parallel, in order** — directives honoured: private variables get
   fresh storage per iteration with the last iteration peeled onto the
   original storage;
3. **parallel, permuted** — same, but iterations run in a permuted order
   (any order must produce the same state if the independence claims made
   by the parallelizer are true).

Disagreement means the parallelization (or a user annotation it relied
on) was unsound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.program import Program
from repro.runtime.interpreter import (ORDER_PERMUTED, ORDER_SEQUENTIAL,
                                       ExecutionResult, outputs_equal)
from repro.runtime.machine import INTEL_MAC, MachineModel


def _common_divergences(serial: ExecutionResult, other: ExecutionResult,
                        label: str, rtol: float = 1e-9) -> List[str]:
    """Human-readable divergences, mirroring exactly the comparisons
    :meth:`ExecutionResult.memory_equal` performs (same comparators, same
    tolerances), so the explanation always agrees with ``passed``."""
    problems: List[str] = []
    ours, theirs = set(serial.commons), set(other.commons)
    for name in sorted(ours - theirs):
        problems.append(f"{label}: COMMON /{name}/ missing from "
                        f"parallel result")
    for name in sorted(theirs - ours):
        problems.append(f"{label}: unexpected COMMON /{name}/ in "
                        f"parallel result")
    for name in sorted(ours & theirs):
        buf, other_buf = serial.commons[name], other.commons[name]
        if buf.shape != other_buf.shape:
            problems.append(
                f"{label}: COMMON /{name}/ shape diverges "
                f"({buf.shape} vs {other_buf.shape})")
            continue
        close = np.isclose(buf, other_buf, rtol=rtol, atol=1e-12)
        if not close.all():
            idx = int(np.argmax(~np.ravel(close)))
            problems.append(
                f"{label}: COMMON /{name}/ diverges at element {idx} "
                f"({np.ravel(buf)[idx]!r} vs {np.ravel(other_buf)[idx]!r})")
    if not outputs_equal(serial.output, other.output, rtol):
        problems.append(f"{label}: program output diverges"
                        + _first_output_divergence(serial.output,
                                                   other.output, rtol))
    return problems


def _first_output_divergence(a: List[str], b: List[str],
                             rtol: float) -> str:
    if len(a) != len(b):
        return f" ({len(a)} vs {len(b)} lines)"
    for i, (la, lb) in enumerate(zip(a, b)):
        if not outputs_equal([la], [lb], rtol):
            return f" at line {i} ({la!r} vs {lb!r})"
    return ""


@dataclass
class DiffTestResult:
    serial: ExecutionResult
    parallel: ExecutionResult
    permuted: ExecutionResult

    @property
    def passed(self) -> bool:
        return (self.serial.memory_equal(self.parallel)
                and self.serial.memory_equal(self.permuted))

    def explain(self) -> str:
        if self.passed:
            return "parallel execution matches serial execution"
        problems: List[str] = []
        for label, result in (("in-order", self.parallel),
                              ("permuted", self.permuted)):
            if not self.serial.memory_equal(result):
                problems.extend(_common_divergences(self.serial, result,
                                                    label))
        return "; ".join(problems) or "unknown divergence"


def diff_test(program: Program,
              machine: Optional[MachineModel] = None,
              inputs: Optional[Sequence[float]] = None,
              backend: Optional[str] = None) -> DiffTestResult:
    """Run the three-way differential test on ``program``.

    ``backend`` picks the execution backend (tree-walker or compiled
    closures); ``None`` follows the process default (``REPRO_BACKEND``).
    """
    from repro.runtime.backend import make_interpreter
    serial = make_interpreter(program, backend, machine=None,
                              honor_directives=False,
                              inputs=list(inputs or [])).run()
    parallel = make_interpreter(program, backend, machine=machine,
                                honor_directives=True,
                                iteration_order=ORDER_SEQUENTIAL,
                                inputs=list(inputs or [])).run()
    permuted = make_interpreter(program, backend, machine=machine,
                                honor_directives=True,
                                iteration_order=ORDER_PERMUTED,
                                inputs=list(inputs or [])).run()
    return DiffTestResult(serial, parallel, permuted)


def _run_both(program: Program, inputs, **kwargs):
    from repro.runtime.backend import make_interpreter

    def attempt(backend):
        try:
            return make_interpreter(program, backend, inputs=list(inputs),
                                    **kwargs).run(), None
        except Exception as exc:  # noqa: BLE001 - errors are part of the contract
            return None, f"{type(exc).__name__}: {exc}"

    return attempt("tree"), attempt("compiled")


def backend_equivalence(program: Program,
                        machine: Optional[MachineModel] = None,
                        inputs: Optional[Sequence[float]] = None
                        ) -> Optional[str]:
    """Run ``program`` under both backends in every execution mode and
    return a description of the first divergence, or ``None``.

    Unlike :func:`diff_test` (which compares *modes* under tolerances,
    testing the parallelization), this compares *backends* exactly —
    output strings, cost, steps, COMMON contents bit-for-bit, stop and
    error messages, and the recorded region tree — because the compiled backend claims to be a perfect
    stand-in for the tree-walker.
    """
    inputs = list(inputs or [])
    modes = [("serial", dict(machine=None, honor_directives=False)),
             ("parallel", dict(machine=machine or INTEL_MAC,
                               honor_directives=True,
                               iteration_order=ORDER_SEQUENTIAL)),
             ("permuted", dict(machine=machine or INTEL_MAC,
                               honor_directives=True,
                               iteration_order=ORDER_PERMUTED))]
    for mode, kwargs in modes:
        (tree, terr), (comp, cerr) = _run_both(program, inputs, **kwargs)
        if terr != cerr:
            return (f"{mode}: error divergence (tree: {terr or 'ok'}; "
                    f"compiled: {cerr or 'ok'})")
        if tree is None:
            continue  # same error from both backends
        if tree.output != comp.output:
            detail = f"{len(tree.output)} vs {len(comp.output)} lines"
            for i, (la, lb) in enumerate(zip(tree.output, comp.output)):
                if la != lb:
                    detail = f"line {i}: {la!r} vs {lb!r}"
                    break
            return f"{mode}: output diverges ({detail})"
        if tree.cost != comp.cost:
            return f"{mode}: cost diverges ({tree.cost} vs {comp.cost})"
        if tree.stop_message != comp.stop_message:
            return (f"{mode}: stop message diverges "
                    f"({tree.stop_message!r} vs {comp.stop_message!r})")
        if set(tree.commons) != set(comp.commons):
            return (f"{mode}: COMMON blocks diverge "
                    f"({sorted(tree.commons)} vs {sorted(comp.commons)})")
        for name in tree.commons:
            a, b = tree.commons[name], comp.commons[name]
            # bit-for-bit: tobytes() distinguishes -0.0 from 0.0 and
            # matches NaNs to themselves, unlike array_equal
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                return f"{mode}: COMMON /{name}/ contents diverge"
        if tree.regions != comp.regions:
            return (f"{mode}: region trees diverge ("
                    + _first_region_divergence(tree.regions.roots,
                                               comp.regions.roots, "")
                    + ")")
    return None


def _first_region_divergence(tree_nodes, comp_nodes, path: str) -> str:
    """Where two lists of recorded region executions first differ."""
    if len(tree_nodes) != len(comp_nodes):
        return (f"{path or 'top level'}: {len(tree_nodes)} vs "
                f"{len(comp_nodes)} region executions")
    for i, (a, b) in enumerate(zip(tree_nodes, comp_nodes)):
        here = f"{path}/{a.site[0]}#{a.site[1]}[{i}]"
        if a.site != b.site:
            return f"{here}: site {a.site} vs {b.site}"
        if a.costs != b.costs:
            return f"{here}: iteration costs differ"
        if [pos for pos, _ in a.children] != [pos for pos, _ in b.children]:
            return f"{here}: inner regions in different iterations"
        if a != b:
            return _first_region_divergence(
                [kid for _, kid in a.children],
                [kid for _, kid in b.children], here)
    return "profiles differ outside the tree"
