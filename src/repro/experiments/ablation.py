"""The annotations-axis ablation: hand vs inferred vs demand.

For each benchmark, runs the ``annotation`` pipeline once per axis value
and compares ``#par-loops`` (the Table II counting protocol) against the
hand-written annotations the paper assumes:

* ``inf:par`` / ``inf:recov%`` — loops recovered by pure inference and
  the recovery rate against hand-written annotations;
* ``inf:flips`` — loops inference parallelizes that hand-written
  annotations do **not** (soundness: must be 0 — inference may only
  lose precision, never invent parallelism the hand summaries reject);
* ``dem:par`` / ``dem:extra`` — demand-driven inlining, which merges
  hand annotations, inferred gap-fillers, and body inlining, so it can
  legitimately exceed the hand-only number.

The ``(benchmark x mode)`` runs are independent and fan out through
:mod:`repro.experiments.executor`, like Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.annotations.infer import ANNOTATION_MODES
from repro.experiments.executor import merge_task_traces, run_tasks
from repro.experiments.reporting import text_table
from repro.experiments.table2 import Table2Task, run_config_task
from repro.perfect import all_benchmarks
from repro.perfect.suite import Benchmark
from repro.polaris import PolarisOptions
from repro.trace import Tracer


@dataclass
class AblationRow:
    benchmark: str
    #: parallel origin sets per mode
    origins: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def par(self, mode: str) -> int:
        return len(self.origins[mode])

    def flips(self) -> int:
        """Loops inference parallelizes that hand annotations reject."""
        return len(self.origins["inferred"] - self.origins["hand"])

    def demand_extra(self) -> int:
        return len(self.origins["demand"] - self.origins["hand"])

    def recovery(self) -> Optional[float]:
        hand = self.par("hand")
        if hand == 0:
            return None
        return len(self.origins["inferred"] & self.origins["hand"]) / hand


def ablation_rows(polaris: Optional[PolarisOptions] = None,
                  jobs: Optional[int] = None,
                  benchmarks: Optional[List[Benchmark]] = None,
                  tracer: Optional[Tracer] = None) -> List[AblationRow]:
    benchmarks = benchmarks if benchmarks is not None else all_benchmarks()
    trace = tracer is not None and tracer.enabled
    # a Table II work unit per value of the annotations axis
    tasks = [Table2Task(b, "annotation", polaris, trace, mode)
             for b in benchmarks for mode in ANNOTATION_MODES]
    outcomes = run_tasks(run_config_task, tasks, jobs=jobs,
                         tracer=tracer, label="ablation")
    merge_task_traces(tracer, [o.trace for o in outcomes])
    rows: List[AblationRow] = []
    n = len(ANNOTATION_MODES)
    for i, b in enumerate(benchmarks):
        row = AblationRow(b.name)
        for mode, outcome in zip(ANNOTATION_MODES,
                                 outcomes[i * n:(i + 1) * n]):
            row.origins[mode] = outcome.origins
        rows.append(row)
    return rows


def render_ablation(rows: Optional[List[AblationRow]] = None,
                    jobs: Optional[int] = None) -> str:
    rows = rows if rows is not None else ablation_rows(jobs=jobs)
    headers = ["Application", "hand:par", "inf:par", "inf:recov%",
               "inf:flips", "dem:par", "dem:extra"]
    body: List[List[object]] = []
    tot = {"hand": 0, "inf": 0, "recov": 0, "flips": 0, "dem": 0,
           "extra": 0}
    for r in rows:
        recov = r.recovery()
        body.append([r.benchmark, r.par("hand"), r.par("inferred"),
                     f"{100 * recov:.0f}" if recov is not None else "-",
                     r.flips(), r.par("demand"), r.demand_extra()])
        tot["hand"] += r.par("hand")
        tot["inf"] += r.par("inferred")
        tot["recov"] += len(r.origins["inferred"] & r.origins["hand"])
        tot["flips"] += r.flips()
        tot["dem"] += r.par("demand")
        tot["extra"] += r.demand_extra()
    total_recov = (f"{100 * tot['recov'] / tot['hand']:.0f}"
                   if tot["hand"] else "-")
    body.append(["TOTAL", tot["hand"], tot["inf"], total_recov,
                 tot["flips"], tot["dem"], tot["extra"]])
    return text_table(
        headers, body,
        title="ANNOTATIONS ABLATION: #PAR-LOOPS UNDER "
              "hand / inferred / demand (annotation config)")
