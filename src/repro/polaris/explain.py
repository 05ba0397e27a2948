"""Why loops stay serial: ranking and rendering of the driver's records.

``repro diagnose`` answers the developer question "everything that
keeps this loop serial" from the :class:`~repro.trace.LoopDecision`
records the driver itself produced — the legality analysis records
every blocker, not only the first — so the explanation cannot disagree
with the verdict.  Loops blocked only by opaque calls, where an
annotation would pay off, come first: the workflow the paper's Section
III-B implies.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.trace.decisions import LoopDecision

#: one line per blocker reason (``{detail}`` is the offending symbol)
_TEXT = {
    "control-flow": "unstructured control flow ({detail})",
    "io": "program I/O in the loop body",
    "unanalyzable": "unanalyzable access ({detail})",
    "equivalence": "{detail} is storage-associated via EQUIVALENCE",
    "index-modified": "loop index {detail} is assigned in the body",
    "call": "opaque call to {detail}",
    "scalar-dep": "scalar {detail} carries values across iterations "
                  "(or has no computable last value)",
    "unprofitable": "unprofitable (too few iterations or no memory "
                    "traffic)",
}


def annotation_candidates(decision: LoopDecision) -> List[str]:
    """Procedures whose annotation would remove a blocker."""
    return [detail for reason, detail, _ in decision.blockers
            if reason == "call"]


def _line(reason: str, detail: str, witness: str) -> str:
    if reason == "array-dep":
        # witness: "<kind> <source> -> <sink>"
        kind, _, pair = witness.partition(" ")
        return f"{kind} dependence on {detail}: {pair}"
    return _TEXT[reason].format(detail=detail)


def describe(decision: LoopDecision) -> str:
    """``UNIT: DO V: serial`` and one ``  - …`` line per blocker, or
    ``UNIT: DO V: parallelizable``."""
    head = f"{decision.unit}: DO {decision.var}"
    if decision.parallelized:
        return f"{head}: parallelizable"
    blockers = decision.blockers or ((decision.reason, decision.detail, ""),)
    lines = [f"{head}: serial"] + [f"  - {_line(*b)}" for b in blockers]
    candidates = annotation_candidates(decision)
    if candidates:
        lines.append("  annotation candidates: " + ", ".join(candidates))
    return "\n".join(lines)


def rank(decisions: Iterable[LoopDecision]) -> List[LoopDecision]:
    """Call-blocked serial loops first, then other serial loops (fewest
    blockers first), then parallel ones; program order within a tie."""
    def key(d: LoopDecision) -> Tuple[int, int]:
        if d.parallelized:
            return (2, 0)
        only_calls = d.blockers and all(reason == "call"
                                        for reason, _, _ in d.blockers)
        return (0 if only_calls else 1, len(d.blockers))
    return sorted(decisions, key=key)
