"""Parallelization reports.

A :class:`Report` records one verdict per analyzed loop: whether it was
parallelized and, if not, the first legality reason that failed.  The
Table II harness diffs reports across inlining configurations to compute
``#par-loops`` / ``#par-loss`` / ``#par-extra`` exactly the way the paper
counts them: per *original* loop (origin identity), so a loop duplicated
by inlining counts once no matter how many copies were parallelized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


@dataclass
class LoopVerdict:
    origin: Optional[str]
    unit: str
    var: str
    parallelized: bool
    reason: str = ""          # failure reason ('' when parallelized)
    detail: str = ""          # offending variable/procedure, if any
    private: tuple = ()
    reductions: tuple = ()

    def describe(self) -> str:
        state = "PARALLEL" if self.parallelized else \
            f"serial ({self.reason}{': ' + self.detail if self.detail else ''})"
        return f"{self.unit}: DO {self.var} [{self.origin}] -> {state}"


#: canonical display order of the pipeline's timed phases
PHASES = ("parse", "clone", "normalize", "summaries", "dependence",
          "infer", "inline", "reverse", "profile", "price")


def merge_timings(into: Dict[str, float],
                  add: Dict[str, float]) -> Dict[str, float]:
    """Accumulate per-phase wall-clock seconds (in place; returned)."""
    for phase, seconds in add.items():
        into[phase] = into.get(phase, 0.0) + seconds
    return into


@dataclass
class Report:
    verdicts: List[LoopVerdict] = field(default_factory=list)
    #: per-phase wall-clock seconds (keys from PHASES), filled by the
    #: driver and the experiment pipeline, shown by the CLI's --profile
    timings: Dict[str, float] = field(default_factory=dict)
    #: dependence-test family counters accumulated over every unit's
    #: tester (TestStats field -> count), shown by --profile
    test_stats: Dict[str, int] = field(default_factory=dict)

    def add(self, v: LoopVerdict) -> None:
        self.verdicts.append(v)

    def parallel_origins(self) -> Set[str]:
        """Origins of parallelized loops (each original loop once)."""
        return {v.origin for v in self.verdicts
                if v.parallelized and v.origin is not None}

    def parallel_count(self) -> int:
        """Number of distinct original loops parallelized; generated loops
        (no origin) are excluded — they do not exist in the original
        benchmark."""
        return len(self.parallel_origins())

    def reasons_histogram(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.verdicts:
            if not v.parallelized:
                out[v.reason] = out.get(v.reason, 0) + 1
        return out

    def verdict_for(self, origin: str) -> Optional[LoopVerdict]:
        best: Optional[LoopVerdict] = None
        for v in self.verdicts:
            if v.origin == origin:
                if v.parallelized:
                    return v
                best = best or v
        return best

    def describe(self) -> str:
        return "\n".join(v.describe() for v in self.verdicts)


@dataclass(frozen=True)
class ConfigComparison:
    """Table II row fragment: a configuration measured against the
    no-inlining baseline."""

    par_loops: int
    par_loss: int
    par_extra: int

    @staticmethod
    def against_baseline(baseline: Set[str],
                         config: Set[str]) -> "ConfigComparison":
        return ConfigComparison(
            par_loops=len(config),
            par_loss=len(baseline - config),
            par_extra=len(config - baseline),
        )
