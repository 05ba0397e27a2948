"""Per-loop decision records — the one record of a loop's fate.

A :class:`LoopDecision` captures everything the driver knew when it
decided a loop's fate: the legality verdict (the first failing reason
and offending symbol, plus every blocker the legality analysis found),
which dependence tests fired while analyzing the loop (a delta of the
tester's :class:`~repro.analysis.dependence.TestStats`), the
privatization/reduction clauses, and the profitability outcome.  The
driver appends the same object to
:attr:`repro.polaris.report.Report.verdicts` and hands it to the tracer;
``repro diagnose`` renders it (:mod:`repro.polaris.explain`).  The
pipeline stamps each record with the benchmark, the inlining
configuration, and whether the loop's unit is execution-reachable —
exactly the information needed to recompute the paper's ``#par-loops``
per ``(benchmark, configuration)`` from a trace alone
(:func:`count_parallel`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: actions a call site can receive from demand-driven inlining
SITE_ACTIONS = ("annotation", "body", "fallback")


@dataclass
class LoopDecision:
    """One loop's journey through the parallelizer."""

    unit: str
    var: str
    origin: Optional[str]
    #: the final verdict (serialised under the key ``"parallel"``)
    parallelized: bool
    reason: str = ""                   # failure reason ('' when parallel)
    detail: str = ""                   # offending symbol/procedure
    #: every legality blocker, ``(reason, detail, witness)``, in check
    #: order (``blockers[0][:2] == (reason, detail)``); empty for a legal
    #: loop, even one kept serial as unprofitable.
    #: ``witness`` is the dependent reference pair for ``array-dep``
    #: (``"flow A(I) -> A(I-1)"``), ``""`` otherwise
    blockers: Tuple[Tuple[str, str, str], ...] = ()
    private: Tuple[str, ...] = ()
    reductions: Tuple = ()
    profitability: str = "not-evaluated"
    #: nonzero TestStats deltas while analyzing this loop, e.g.
    #: {"banerjee_independent": 3, "assumed_dependent": 1}
    dep_tests: Dict[str, int] = field(default_factory=dict)
    # stamped by the experiment pipeline:
    benchmark: str = ""
    config: str = ""
    #: is the loop's unit execution-reachable in the final program?
    #: (the Table II counting protocol only counts reachable copies)
    reachable: bool = True

    def to_dict(self) -> Dict[str, object]:
        # the record is flat: its instance dict, in field order
        d = {("parallel" if k == "parallelized" else k): v
             for k, v in vars(self).items()}
        d["blockers"] = [list(b) for b in self.blockers]
        d["private"] = list(self.private)
        d["reductions"] = [list(r) if isinstance(r, (tuple, list)) else r
                           for r in self.reductions]
        d["dep_tests"] = dict(self.dep_tests)
        return d

    @staticmethod
    def from_dict(d: Dict[str, object]) -> "LoopDecision":
        return LoopDecision(
            unit=str(d.get("unit", "")),
            var=str(d.get("var", "")),
            origin=d.get("origin"),  # type: ignore[arg-type]
            parallelized=bool(d.get("parallel", False)),
            reason=str(d.get("reason", "")),
            detail=str(d.get("detail", "")),
            blockers=tuple(tuple(b) for b in d.get("blockers", ()) or ()),
            private=tuple(d.get("private", ()) or ()),
            reductions=tuple(tuple(r) if isinstance(r, list) else r
                             for r in (d.get("reductions", ()) or ())),
            profitability=str(d.get("profitability", "not-evaluated")),
            dep_tests=dict(d.get("dep_tests", {}) or {}),
            benchmark=str(d.get("benchmark", "")),
            config=str(d.get("config", "")),
            reachable=bool(d.get("reachable", True)),
        )

    def describe(self) -> str:
        state = "PARALLEL" if self.parallelized else \
            f"serial ({self.reason}{': ' + self.detail if self.detail else ''})"
        where = f"{self.benchmark}/{self.config}: " if self.benchmark else ""
        return f"{where}{self.unit}: DO {self.var} [{self.origin}] -> {state}"


@dataclass
class SiteDecision:
    """One call site's fate under demand-driven inlining.

    Emitted by :class:`repro.inlining.demand.DemandInliner` each time the
    legality analyzer asks it to resolve an opaque call inside a
    candidate loop, and by :func:`repro.annotations.infer.infer_annotations`
    for callees it had to refuse (``site_id`` 0, empty ``unit``).
    """

    unit: str                          # caller unit ('' for inference records)
    callee: str
    site_id: int                       # 0 for inference-time fallback records
    action: str                        # one of SITE_ACTIONS
    source: str = ""                   # "hand" | "inferred" | ""
    reason: str = ""                   # why a fallback was taken
    # stamped by the experiment pipeline:
    benchmark: str = ""
    config: str = ""

    def to_dict(self) -> Dict[str, object]:
        return dict(vars(self))

    @staticmethod
    def from_dict(d: Dict[str, object]) -> "SiteDecision":
        return SiteDecision(
            unit=str(d.get("unit", "")),
            callee=str(d.get("callee", "")),
            site_id=int(d.get("site_id", 0) or 0),
            action=str(d.get("action", "")),
            source=str(d.get("source", "")),
            reason=str(d.get("reason", "")),
            benchmark=str(d.get("benchmark", "")),
            config=str(d.get("config", "")),
        )

    def describe(self) -> str:
        where = f"{self.benchmark}/{self.config}: " if self.benchmark else ""
        site = f"{self.unit}#{self.site_id}" if self.unit else "infer"
        tail = f" ({self.reason})" if self.reason else ""
        src = f" [{self.source}]" if self.source else ""
        return f"{where}{site}: CALL {self.callee} -> {self.action}{src}{tail}"


def count_parallel(decisions: Iterable[LoopDecision]
                   ) -> Dict[Tuple[str, str], int]:
    """Distinct parallelized origins per ``(benchmark, config)``.

    Implements the paper's counting protocol: each *original* loop
    (origin identity) counts once, only execution-reachable copies
    count, and generated loops (no origin) are excluded — so the result
    matches ``Table2Row.configs[kind].par_loops`` exactly.
    """
    origins: Dict[Tuple[str, str], Set[str]] = {}
    for d in decisions:
        if d.parallelized and d.reachable and d.origin is not None:
            origins.setdefault((d.benchmark, d.config), set()).add(d.origin)
    return {key: len(vals) for key, vals in origins.items()}


def write_decisions_jsonl(decisions: Iterable[LoopDecision],
                          path: str) -> None:
    """Write decisions as one compact JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in decisions:
            fh.write(json.dumps(d.to_dict(), sort_keys=True,
                                separators=(",", ":")) + "\n")


def read_decisions_jsonl(path: str) -> List[LoopDecision]:
    out: List[LoopDecision] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(LoopDecision.from_dict(json.loads(line)))
    return out
