"""Machine models for the simulated OpenMP execution.

The paper measures on two multicore machines; we model the properties
that matter to Figure 20's *shape*: the thread count and the fixed costs
of entering/leaving a parallel region.  All quantities are in abstract
work units (the interpreter charges ~1 unit per executed operation), so a
fork overhead of 1500 means "parallelization pays off only for loops
whose total work comfortably exceeds a few thousand operations" — which
is exactly why most PERFECT benchmarks, with their small input sizes, see
at most ~10% end-to-end improvement and why the empirical tuning step
must disable some parallelized loops.

Beside the model lives the *pricer*.  Every simulated cost is
``W + sum of deltas``: the work ``W`` and each iteration's base cost do
not depend on the machine or on which directives are on, and each
executed parallel region adds ``parallel_time(iterations) - serial sum``.
An interpreter that honours directives records the dynamic region tree
(:class:`RegionProfile`), and :func:`price` replays it for any machine
and any set of disabled directives — so the tuning protocol executes a
program once and prices it many times.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: a directive site: (unit name, preorder index from collect_omp_sites)
Site = Tuple[str, int]


@dataclass(frozen=True)
class MachineModel:
    name: str
    threads: int
    #: fixed cost of entering + leaving one parallel region
    fork_join_overhead: float = 1500.0
    #: per-chunk scheduling cost charged to each thread
    per_thread_overhead: float = 60.0
    #: relative serial-execution speed (arbitrary scale; affects absolute
    #: times only, never speedups)
    clock: float = 1.0

    def parallel_time(self, iteration_costs, nested: bool = False) -> float:
        """Simulated wall-clock cost of one parallel loop execution.

        Static (block) scheduling of ``iteration_costs`` over
        ``self.threads``; a nested region (inside an active parallel
        region) runs on one thread, paying only the fork overhead, which
        is OpenMP's default nested-parallelism behaviour.
        """
        costs = list(iteration_costs)
        if not costs:
            return self.fork_join_overhead
        if nested:
            return self.fork_join_overhead / 4 + sum(costs)
        threads = min(self.threads, len(costs))
        chunk = (len(costs) + threads - 1) // threads
        loads = [sum(costs[t * chunk:(t + 1) * chunk])
                 for t in range(threads)]
        return (self.fork_join_overhead
                + self.per_thread_overhead * threads
                + max(loads))


#: two quad-core 3GHz Intel processors (the paper's Intel Macintosh)
INTEL_MAC = MachineModel("intel-mac", threads=8, fork_join_overhead=1800.0,
                         per_thread_overhead=70.0)

#: two dual-core 3GHz AMD Opterons
AMD_OPTERON = MachineModel("amd-opteron", threads=4,
                           fork_join_overhead=1200.0,
                           per_thread_overhead=50.0)


@dataclass(slots=True)
class RegionNode:
    """One dynamic execution of an ``OmpParallelDo``."""

    site: Site
    #: cost charged inside each iteration, in execution order, as packed
    #: doubles (equal vectors of one profile are one object); ``None``
    #: for a region left by ``STOP`` or a ``GOTO`` out of it, which the
    #: in-run model never prices; the interpreter's live list while the
    #: region is still executing
    costs: Optional[Union[array, List[float]]]
    #: (position of the iteration in ``costs``, region executed in it)
    children: Sequence[Tuple[int, "RegionNode"]]


@dataclass(frozen=True)
class RegionProfile:
    """The region tree of one directive-honouring execution."""

    #: total cost of the recorded run
    work: float
    #: the regions entered outside any other region
    roots: Tuple[RegionNode, ...]
    #: the machine the run was priced under; iteration costs are base
    #: costs, and the profile can be priced, only when this is ``None``
    machine: Optional[MachineModel] = None


class RegionRecorder:
    """Builds the region tree of one execution from the interpreter's
    enter/leave calls."""

    def __init__(self) -> None:
        self._roots: List[RegionNode] = []
        #: the regions still executing, innermost last
        self._open: List[RegionNode] = []
        self._vectors: Dict[bytes, array] = {}

    def enter(self, site: Site, iteration_costs: List[float]) -> None:
        """A region execution begins; ``iteration_costs`` is the live
        list the interpreter appends each finished iteration's cost to
        (its length is the position of the iteration in progress)."""
        node = RegionNode(site, iteration_costs, [])
        if self._open:
            parent = self._open[-1]
            parent.children.append((len(parent.costs), node))
        else:
            self._roots.append(node)
        self._open.append(node)

    def leave(self, completed: bool) -> None:
        """The innermost region ends: pack and intern its iteration
        costs, or mark it never priced when control left it early."""
        node = self._open.pop()
        node.children = tuple(node.children)
        if completed:
            packed = array("d", node.costs)
            node.costs = self._vectors.setdefault(packed.tobytes(), packed)
        else:
            node.costs = None

    def profile(self, work: float,
                machine: Optional[MachineModel]) -> RegionProfile:
        return RegionProfile(work, tuple(self._roots), machine)


def price(profile: RegionProfile, machine: MachineModel,
          disabled=frozenset()
          ) -> Tuple[float, Dict[Site, Tuple[float, float]]]:
    """Cost of the profiled execution on ``machine`` with the directives
    at the ``disabled`` sites replaced by their loops, and each priced
    site's accumulated ``(serial, parallel)`` cost — what an execution
    with ``machine=machine`` of that program reports as ``cost`` and
    ``omp_stats``, exactly (base costs are multiples of 0.5, so while the
    machine's overheads are too, every sum here is exact in any order).

    An active region's iteration costs are its base costs plus the
    deltas of the regions inside it, priced nested; a disabled region
    passes its inner regions through at the enclosing nesting level.
    """
    if profile.machine is not None:
        raise ValueError("profile was recorded under in-run pricing; "
                         "its iteration costs are not base costs")
    stats: Dict[Site, List[float]] = {}
    #: a region with no regions inside is priced once per nesting level
    #: and cost vector — the recorder made equal vectors one object, and
    #: ``parallel_time`` is a function of exactly that pair
    leaves: Dict[Tuple[int, bool], Tuple[float, float]] = {}

    def delta(node: RegionNode, nested: bool) -> float:
        active = node.site not in disabled
        if node.costs is None or not active:
            inner = nested or active
            return sum(delta(kid, inner) for _pos, kid in node.children)
        costs = node.costs
        if node.children:
            base = serial = sum(costs)
            costs = list(costs)
            for pos, kid in node.children:
                inner = delta(kid, True)
                costs[pos] += inner
                serial += inner
            parallel = machine.parallel_time(costs, nested)
        else:
            priced = leaves.get((id(costs), nested))
            if priced is None:
                priced = leaves[id(costs), nested] = (
                    sum(costs), machine.parallel_time(costs, nested))
            base = serial = priced[0]
            parallel = priced[1]
        stat = stats.setdefault(node.site, [0.0, 0.0])
        stat[0] += serial
        stat[1] += parallel
        return parallel - base

    cost = profile.work + sum(delta(node, False) for node in profile.roots)
    return cost, {site: tuple(stat) for site, stat in stats.items()}
