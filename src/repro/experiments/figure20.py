"""Figure 20 — runtime speedups of the automatically parallelized
benchmarks on the two machine models, under the three inlining
configurations, with empirical tuning applied (exactly the paper's
measurement protocol).

Speedup = serial simulated time / tuned parallel simulated time, per
benchmark x machine x configuration.

Each ``(benchmark x machine x config)`` cell is an independent executor
work unit (:class:`Figure20Task`): the worker runs the configuration's
pipeline and executes the optimized program once, recording its region
profile, and then prices the tuning protocol from that profile — its
decision only, which edits nothing and so clones nothing.  Pipeline and
execution are memoized per process: the pipeline per
(benchmark, configuration), since both machines tune the same program,
and the execution per distinct program *text*, since configurations
often emit the same one (25 texts among the 36) and an execution depends
on nothing but the text and its inputs.  Cells come back in task order,
so the rendered figure is byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.executor import merge_task_traces, run_tasks
from repro.experiments.pipeline import (CONFIGS, Config, PipelineResult,
                                        run_config)
from repro.experiments.reporting import bar_chart
from repro.experiments.tuning import TuningResult, decide, record_profile
from repro.perfect import all_benchmarks
from repro.perfect.suite import Benchmark
from repro.runtime.machine import (AMD_OPTERON, INTEL_MAC, MachineModel,
                                   RegionProfile)
from repro.trace import NULL_TRACER, Tracer

MACHINES = (INTEL_MAC, AMD_OPTERON)


@dataclass
class SpeedupCell:
    benchmark: str
    machine: str
    config: str
    tuning: TuningResult
    #: per-phase wall-clock seconds this cell actually spent: pipeline
    #: phases and 'profile' only on the cell that ran the pipeline
    #: ('profile' is the program's one execution, or ~0 s when another
    #: configuration already executed the same text); 'price', the
    #: protocol's decision, always
    timings: Dict[str, float] = field(default_factory=dict)
    #: worker-local :meth:`repro.trace.Tracer.export`, when requested
    trace: Optional[Dict[str, Any]] = None

    @property
    def speedup(self) -> float:
        return self.tuning.speedup


@dataclass(frozen=True)
class Figure20Task:
    """One executor work unit: a (benchmark, machine, config) cell."""

    benchmark: Benchmark
    machine: MachineModel
    kind: str
    #: record a worker-local trace and ship it back with the cell
    trace: bool = False


#: (source digest, config kind) -> finished pipeline result and the
#: region profile of its program, so the cells for both machine models
#: (and repeated calls) share one pipeline run per process
_PIPELINE_CACHE: Dict[Tuple[str, str],
                      Tuple[PipelineResult, RegionProfile]] = {}

#: (unparsed program text, inputs) -> region profile of its one
#: execution.  The text is the whole program and sites are structural
#: ``(unit, preorder index)`` pairs, so configurations that emit the same
#: text share the execution too
_PROFILE_CACHE: Dict[Tuple[str, Tuple[float, ...]], RegionProfile] = {}


def clear_pipeline_cache() -> None:
    _PIPELINE_CACHE.clear()
    _PROFILE_CACHE.clear()


def run_cell_task(task: Figure20Task) -> SpeedupCell:
    tracer = Tracer(label=f"figure20 {task.benchmark.name}/"
                          f"{task.machine.name}/{task.kind}") \
        if task.trace else NULL_TRACER
    ids = dict(benchmark=task.benchmark.name, machine=task.machine.name,
               config=task.kind)
    key = (task.benchmark.digest(), task.kind)
    entry = _PIPELINE_CACHE.get(key)
    if entry is None:
        result = run_config(task.benchmark, Config(task.kind),
                            tracer=tracer)
        timings = dict(result.report.timings)
        text = (result.output, tuple(task.benchmark.inputs))
        with tracer.phase("profile", timings, **ids):
            profile = _PROFILE_CACHE.get(text)
            if profile is None:
                profile = _PROFILE_CACHE[text] = record_profile(
                    result.program, task.benchmark.inputs)
        entry = _PIPELINE_CACHE[key] = (result, profile)
    else:
        timings = {}  # pipeline and execution: attributed to an earlier cell
    result, profile = entry
    with tracer.phase("price", timings, **ids):
        tuning, _off = decide(result.program, task.machine,
                              task.benchmark.inputs, profile=profile)
    return SpeedupCell(task.benchmark.name, task.machine.name, task.kind,
                       tuning, timings,
                       tracer.export() if task.trace else None)


def figure20_cells(benchmark: Benchmark,
                   machines: Sequence[MachineModel] = MACHINES,
                   jobs: Optional[int] = None,
                   tracer: Optional[Tracer] = None) -> List[SpeedupCell]:
    return figure20_all(machines, [benchmark], jobs, tracer)


def figure20_all(machines: Sequence[MachineModel] = MACHINES,
                 benchmarks: Optional[List[Benchmark]] = None,
                 jobs: Optional[int] = None,
                 tracer: Optional[Tracer] = None) -> List[SpeedupCell]:
    benchmarks = benchmarks if benchmarks is not None else all_benchmarks()
    trace = tracer is not None and tracer.enabled
    tasks = [Figure20Task(b, machine, kind, trace=trace)
             for b in benchmarks
             for machine in machines for kind in CONFIGS]
    cells = run_tasks(run_cell_task, tasks, jobs=jobs,
                      tracer=tracer, label="figure20")
    merge_task_traces(tracer, [c.trace for c in cells])
    return cells


def render_figure20(cells: List[SpeedupCell]) -> str:
    by_machine: Dict[str, List[SpeedupCell]] = {}
    for c in cells:
        by_machine.setdefault(c.machine, []).append(c)
    sections: List[str] = []
    for machine, group in by_machine.items():
        labels = [f"{c.benchmark:8s} {c.config}" for c in group]
        values = [c.speedup for c in group]
        sections.append(bar_chart(
            labels, values,
            title=f"FIGURE 20: speedups on {machine} "
                  f"(serial time / tuned parallel time)"))
    return "\n\n".join(sections)
