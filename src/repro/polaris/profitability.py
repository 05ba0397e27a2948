"""Parallelization profitability heuristics.

Polaris used "simplistic heuristics, e.g., all parallelized loops need to
exceed a certain number of iterations" (paper Section III-C2).  We model
exactly that: a loop with a *known* trip count below the threshold is not
worth the fork/join overhead; unknown trip counts are presumed large.
A loop whose body performs no memory traffic at all (rare, but generated
code can produce it) is also skipped.
"""

from __future__ import annotations

from repro.analysis.defuse import AccessSet
from repro.analysis.loops import trip_count
from repro.fortran import ast


#: minimum known trip count worth parallelizing
MIN_TRIP_COUNT = 4


def profitable(loop: ast.DoLoop, acc: AccessSet) -> bool:
    """``acc``: the accesses of ``loop``'s body."""
    trips = trip_count(loop)
    if trips is not None and trips < MIN_TRIP_COUNT:
        return False
    if not acc.array_accesses and not acc.has_call:
        return False
    return True
