"""Empirical performance tuning (paper Section IV-B).

"To avoid degradation of performance by excessive parallelization of
loops, we used empirical performance tuning to disable a selected set of
loops from being parallelized if their parallelization incurs a slowdown
of the overall execution time."

Greedy procedure on the optimized program: measure the simulated time
and every directive's serial-body vs parallel cost; disable each
directive whose parallel execution is not a net win; repeat until none
is left.  Operates on the final (reverse-inlined) AST, so it applies
identically to all three configurations.

Execute once, price many: simulated cost is ``W + sum of region
deltas`` with the work ``W`` independent of machine and directives, so
one recorded execution (:func:`record_profile`) serves the serial cost,
the initial cost and every round, on every machine —
:func:`repro.runtime.machine.price` does the rest, at the cost of the
profile's distinct region subtrees (equal ones are one node) rather
than of its region executions.  Figure 20 executes once per distinct
program: its cells look the profile up by program text
(:func:`repro.experiments.figure20.run_cell_task`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.fortran import ast
from repro.program import Program
from repro.runtime.backend import make_interpreter
from repro.runtime.interpreter import number_omp_sites
from repro.runtime.machine import MachineModel, RegionProfile, Site, price

#: bound on the greedy disabling rounds of :func:`decide`
MAX_ROUNDS = 4


@dataclass
class TuningResult:
    initial_cost: float
    tuned_cost: float
    serial_cost: float
    disabled: List[str] = field(default_factory=list)
    kept: List[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.serial_cost / self.tuned_cost if self.tuned_cost else 1.0

    @property
    def untuned_speedup(self) -> float:
        return (self.serial_cost / self.initial_cost
                if self.initial_cost else 1.0)


def _directive_sites(program: Program):
    """(container list, index, OmpParallelDo) for every directive."""
    sites = []

    def scan(body: List[ast.Stmt]) -> None:
        for i, s in enumerate(body):
            if isinstance(s, ast.OmpParallelDo):
                sites.append((body, i, s))
                scan(s.loop.body)
            else:
                for child in ast.stmt_children(s):
                    scan(child)

    for unit in program.units:
        scan(unit.body)
    return sites


def record_profile(program: Program,
                   inputs: Sequence[float] = ()) -> RegionProfile:
    """The one execution the protocol needs: directives honoured, so the
    run records its region tree, whose iteration costs are base costs
    on every machine."""
    return make_interpreter(program, honor_directives=True,
                            inputs=list(inputs)).run().regions


def decide(program: Program, machine: MachineModel,
           inputs: Sequence[float] = (),
           profile: Optional[RegionProfile] = None
           ) -> Tuple[TuningResult, Set[Site]]:
    """The tuning protocol's decision, leaving ``program`` as it is: its
    result and the sites of the directives to disable.

    The program is executed at most once, and not at all when the caller
    supplies the ``profile`` of an earlier :func:`record_profile` of this
    program or of a clone (sites are named structurally, and the
    execution depends on neither the machine nor the directives).  Every
    cost of the protocol is then priced from that profile: the serial
    cost is its work, the initial cost prices it with every directive
    on, and each greedy round prices it with the directives disabled so
    far — yielding every directive's accumulated serial-body vs parallel
    cost, from which every directive whose parallel execution is not a
    net win is disabled.  Rounds repeat (disabling an outer region
    changes the fork costs of the regions nested inside it) until a
    fixed point.  A round prices each distinct region subtree once per
    nesting level, and reuses the leaf prices of the rounds before it:
    they live on the profile's nodes, per machine and nesting level.
    """
    if profile is None:
        profile = record_profile(program, inputs)
    site_of = number_omp_sites(program)
    labelled = [(site_of[id(omp)],
                 f"{omp.loop.var}@{getattr(omp.loop, 'origin', '?')}")
                for _body, _idx, omp in _directive_sites(program)]
    off: Set[Site] = set()
    initial, stats = price(profile, machine, off)
    best = initial
    disabled: List[str] = []
    for _ in range(MAX_ROUNDS):
        harmful = {site for site, (s_cost, p_cost) in stats.items()
                   if p_cost >= s_cost} - off
        if not harmful:
            break
        disabled += [label for site, label in labelled if site in harmful]
        off |= harmful
        best, stats = price(profile, machine, off)
    kept = [label for site, label in labelled if site not in off]
    return TuningResult(initial, best, profile.work, disabled, kept), off


def tune(program: Program, machine: MachineModel,
         inputs: Sequence[float] = (),
         profile: Optional[RegionProfile] = None) -> TuningResult:
    """Disable harmful directives in place: :func:`decide`, then replace
    each directive it names by its loop."""
    result, off = decide(program, machine, inputs, profile)
    site_of = number_omp_sites(program)
    for body, idx, omp in _directive_sites(program):
        if site_of[id(omp)] in off:
            body[idx] = omp.loop
    return result
