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
An interpreter that honours directives only records the dynamic region
tree (:class:`RegionProfile`), equal subtrees as one node, and
:func:`price` — the one caller of ``parallel_time`` — prices it for any
machine and any set of disabled directives at the cost of its distinct
subtrees, so the tuning protocol executes a program once and prices it
many times.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
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
    """One dynamic execution of an ``OmpParallelDo`` — in a recorded
    profile, every execution equal to it (see :class:`RegionRecorder`)."""

    site: Site
    #: cost charged inside each iteration, in execution order, as packed
    #: doubles (equal vectors of one profile are one object); ``None``
    #: for a region left by ``STOP`` or a ``GOTO`` out of it, which
    #: :func:`price` never prices; the interpreter's live list while the
    #: region is still executing
    costs: Optional[Union[array, List[float]]]
    #: (position of the iteration in ``costs``, region executed in it)
    children: Sequence[Tuple[int, "RegionNode"]]
    #: :func:`price`'s caches, outside equality: ``children`` as (region,
    #: its positions) groups, and a leaf's (sum, parallel time) per
    #: (machine, nesting level), kept across calls
    groups: Optional[tuple] = field(default=None, compare=False, repr=False)
    leaf: Optional[dict] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RegionProfile:
    """The region tree of one directive-honouring execution."""

    #: total cost of the recorded run
    work: float
    #: the regions entered outside any other region
    roots: Tuple[RegionNode, ...]


class RegionRecorder:
    """Builds the region tree of one execution from the interpreter's
    enter/leave calls, equal subtrees as one node: a DAG that compares
    equal to the same tree built node by node."""

    def __init__(self) -> None:
        self._roots: List[RegionNode] = []
        #: the regions still executing, innermost last
        self._open: List[RegionNode] = []
        self._vectors: Dict[bytes, array] = {}
        self._nodes: Dict[tuple, RegionNode] = {}
        #: (site, per-iteration cost, trips) -> its interned leaf
        self._uniform: Dict[tuple, RegionNode] = {}

    def enter(self, site: Site, iteration_costs: List[float]) -> None:
        """A region execution begins; ``iteration_costs`` is the live
        list the interpreter appends each finished iteration's cost to
        (its length is the position of the iteration in progress)."""
        node = RegionNode(site, iteration_costs, [])
        self._place(node)
        self._open.append(node)

    def _place(self, node: RegionNode) -> None:
        if self._open:
            parent = self._open[-1]
            parent.children.append((len(parent.costs), node))
        else:
            self._roots.append(node)

    def uniform(self, site: Site, per_iter: float, trips: int) -> None:
        """A completed region execution with no region inside, whose
        ``trips`` iterations each cost ``per_iter``: the first one of a
        kind is recorded by ``enter``/``leave``, every later one is the
        node that recorded."""
        key = (site, per_iter, trips)
        node = self._uniform.get(key)
        if node is not None:
            self._place(node)
            return
        self.enter(site, [per_iter] * trips)
        self._uniform[key] = self.leave(True)

    def leave(self, completed: bool) -> RegionNode:
        """The innermost region ends: pack and intern its iteration
        costs, or mark it never priced when control left it early, and
        put the first node recorded equal to it in its place (its vector
        and children are already shared, so compared by object); return
        that node."""
        node = self._open.pop()
        node.children = tuple(node.children)
        if completed:
            packed = array("d", node.costs)
            node.costs = self._vectors.setdefault(packed.tobytes(), packed)
        else:
            node.costs = None
        node = self._nodes.setdefault(
            (node.site, id(node.costs),
             tuple([(pos, id(kid)) for pos, kid in node.children])), node)
        if self._open:
            siblings = self._open[-1].children
            siblings[-1] = (siblings[-1][0], node)
        else:
            self._roots[-1] = node
        return node

    def profile(self, work: float) -> RegionProfile:
        return RegionProfile(work, tuple(self._roots))


def price(profile: RegionProfile, machine: MachineModel,
          disabled=frozenset()
          ) -> Tuple[float, Dict[Site, Tuple[float, float]]]:
    """Cost of the profiled execution on ``machine`` with the directives
    at the ``disabled`` sites replaced by their loops, and each priced
    site's accumulated ``(serial, parallel)`` cost — exact, because base
    costs are multiples of 0.5, so while the machine's overheads are
    too, every sum and multiple here is exact in any order.

    An active region's iteration costs are its base costs plus the
    deltas of the regions inside it, priced nested (a region inside an
    executing one); a disabled region passes its inner regions through
    at the enclosing nesting level, and so does a region left early,
    which is not priced itself.  A (node, level) is priced once, its
    stats counted as often as it executed — summed down the DAG from the
    roots, parents before children.
    """
    #: (node id, level) -> (node, its children's level, delta, serial,
    #: parallel — None when not priced), in postorder
    done: Dict[Tuple[int, bool], tuple] = {}

    def delta(node: RegionNode, nested: bool) -> float:
        entry = done.get((id(node), nested))
        if entry is not None:
            return entry[2]
        if node.groups is None:
            by_kid: Dict[int, Tuple[RegionNode, List[int]]] = {}
            for pos, kid in node.children:
                by_kid.setdefault(id(kid), (kid, []))[1].append(pos)
            node.groups = tuple(by_kid.values())
        active = node.site not in disabled
        inner, serial, parallel = nested or active, None, None
        if node.costs is None or not active:
            change = sum(delta(kid, inner) * len(at)
                         for kid, at in node.groups)
        elif node.groups:
            costs = list(node.costs)
            base = serial = sum(costs)
            for kid, at in node.groups:
                kid_delta = delta(kid, True)
                for pos in at:
                    costs[pos] += kid_delta
                serial += kid_delta * len(at)
            parallel = machine.parallel_time(costs, nested)
            change = parallel - base
        else:
            leaf = node.leaf = node.leaf or {}
            if (machine, nested) not in leaf:
                leaf[machine, nested] = (
                    sum(node.costs), machine.parallel_time(node.costs, nested))
            serial, parallel = leaf[machine, nested]
            change = parallel - serial
        done[id(node), nested] = (node, inner, change, serial, parallel)
        return change

    roots = {id(node): node for node in profile.roots}
    times = Counter((id(node), False) for node in profile.roots)
    cost = profile.work + sum(delta(roots[key], False) * n
                              for (key, _), n in times.items())
    stats: Dict[Site, List[float]] = {}
    for key, (node, inner, _, serial, parallel) in reversed(done.items()):
        n = times[key]
        for kid, at in node.groups:
            times[id(kid), inner] += n * len(at)
        if serial is not None:
            stat = stats.setdefault(node.site, [0.0, 0.0])
            stat[0] += n * serial
            stat[1] += n * parallel
    return cost, {site: tuple(stat) for site, stat in stats.items()}
