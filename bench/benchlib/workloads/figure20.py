"""``figure20`` — the paper's run-side artefact: tuned simulated speedups.

One pass clears the pipeline and compile caches, then runs
``run_cell_task`` for 12 benchmarks x 2 machine models x 3 inlining
configurations (op = one cell, 72 per pass) on the default (compiled)
backend.  Almost all of it is program execution: per cell one serial run
and two or more OpenMP-simulated runs of the tuning protocol.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.experiments import tuning
from repro.experiments.figure20 import (MACHINES, Figure20Task, SpeedupCell,
                                        clear_pipeline_cache,
                                        render_figure20, run_cell_task)
from repro.experiments.pipeline import CONFIGS, Config, run_config
from repro.obs import metrics as obs_metrics
from repro.perfect import all_benchmarks
from repro.runtime.backend import BACKEND_ENV, make_interpreter
from repro.runtime.compiler import clear_compile_cache, compile_cache_info

from .. import expected
from ..timing import Clock
from ..workload import Workload
from .table2 import benchmark_input_digest, ratio


def summarize(result) -> Dict[str, Any]:
    """What a cell is checked on (``result``: a ``TuningResult``)."""
    return {"serial_cost": result.serial_cost,
            "initial_cost": result.initial_cost,
            "tuned_cost": result.tuned_cost,
            "disabled": list(result.disabled)}


def executions() -> float:
    """Interpreters constructed so far, from the public obs registry."""
    values = obs_metrics.get_registry().to_json().get(
        "repro_runtime_exec_total", {})
    return sum(values.values()) if isinstance(values, dict) else values


def lowering_seconds() -> float:
    """Seconds spent lowering units so far, as the program reports them
    in the public obs registry."""
    return obs_metrics.get_registry().to_json().get(
        "repro_runtime_compile_seconds", {}).get("sum", 0.0)


class Figure20(Workload):
    name = "figure20"
    ops_per_pass = 72

    def prepare(self) -> None:
        self.benchmarks = all_benchmarks()
        self.cells: List[Tuple[str, Any, Any, str]] = [
            (f"{b.name}/{m.name}/{kind}", b, m, kind)
            for b in self.benchmarks for m in MACHINES for kind in CONFIGS]
        reference = expected.load(self.name, self.expected_dir)
        self.expected: Dict[str, Any] = {}
        for op_id, b, _m, _kind in self.cells:
            unchanged = reference["inputs"].get(b.name) == \
                benchmark_input_digest(b)
            self.expected[op_id] = (reference["cells"].get(op_id)
                                    if unchanged else None)

    def warm_up(self, clock: Clock) -> None:
        """One cell per benchmark instead of a whole pass: every pass
        starts from cleared pipeline and compile caches, so what a full
        first pass would leave warm is the parse cache and the
        interpreter's lazily imported machinery, and these 12 cells
        leave the same (a whole pass costs 11 s of every run)."""
        self._pass(clock, [c for c in self.cells
                           if c[2] is MACHINES[0] and c[3] == CONFIGS[0]],
                   self._cell)

    def run_pass(self, index: int, clock: Clock) -> None:
        self._pass(clock, self._order(index), self._cell)

    def run_pass_staged(self, index: int, clock: Clock) -> None:
        pipelines: Dict[Tuple[str, str], Any] = {}
        costs: List[float] = []
        with timed_interpreters(clock, costs):
            self._pass(clock, self._order(index),
                       lambda b, m, kind: self._staged_cell(
                           clock, pipelines, b, m, kind))
        # an exactly rounded sum: the same in every order of the cells
        self.counts["runtime.sim_cost_units"] = math.fsum(costs)

    def _order(self, index: int):
        order = list(self.cells)
        self.rng(index).shuffle(order)
        return order

    @staticmethod
    def _cell(b, m, kind):
        return run_cell_task(Figure20Task(b, m, kind)).tuning

    def _pass(self, clock: Clock, cells, op) -> None:
        with clock.work("bench.clear_caches"):
            clear_pipeline_cache()
            clear_compile_cache()
        started, lowering = executions(), lowering_seconds()
        speedups = []
        for op_id, b, m, kind in cells:
            result = self.attempt(clock, op_id, lambda: op(b, m, kind))
            if result is None:
                continue
            self.expect(op_id, summarize(result), self.expected[op_id])
            self.count("experiments.tune_disabled", len(result.disabled))
            speedups.append(result.speedup)
        self.counts["runtime.executions"] = executions() - started
        self.report_s("runtime.lower_s", lowering_seconds() - lowering)
        cache = compile_cache_info()
        self.counts["runtime.compile_cache_misses"] = cache["misses"]
        self.counts["runtime.compile_cache_hits"] = cache["hits"]
        if speedups:
            self.counts["runtime.sim_speedup_geomean"] = math.exp(
                math.fsum(math.log(s) for s in speedups) / len(speedups))

    def _staged_cell(self, clock: Clock, pipelines, b, m, kind):
        """``run_cell_task`` re-driven: the pipeline once per
        (benchmark, configuration), then the tuning protocol on a clone,
        with every program execution inside it under its own span."""
        result = pipelines.get((b.name, kind))
        if result is None:
            with clock.span("experiments.pipeline"):
                result = run_config(b, Config(kind))
            pipelines[(b.name, kind)] = result
        with clock.span("program.clone"):
            program = result.program.clone()
        with clock.span("experiments.tune"):
            return tuning.tune(program, m, b.inputs)

    def derived(self, layer_s, counts):
        exec_s = (layer_s.get("runtime.exec_serial_s", 0.0)
                  + layer_s.get("runtime.exec_parallel_s", 0.0))
        return {"runtime.sim_units_per_s": ratio(
            counts.get("runtime.sim_cost_units", 0.0), exec_s)}

    def extras(self) -> Dict[str, float]:
        """What keeping the tree backend as the oracle costs: one serial
        run of each benchmark's annotation-configuration program."""
        tree_s = 0.0
        for b in self.benchmarks:
            program = run_config(b, Config("annotation")).program
            t0 = perf_counter()
            make_interpreter(program, backend="tree", machine=None,
                             honor_directives=False,
                             inputs=list(b.inputs)).run()
            tree_s += perf_counter() - t0
        return {"runtime.tree_exec_s": tree_s}


@contextmanager
def timed_interpreters(clock: Clock, costs: List[float]):
    """While active, every interpreter the tuning protocol makes through
    the public ``make_interpreter`` is lowered and run under a
    ``runtime.exec_serial`` / ``runtime.exec_parallel`` span, and the
    simulated cost of each run is appended to ``costs``."""
    real = tuning.make_interpreter

    def make(program, **kwargs):
        name = ("runtime.exec_serial" if kwargs.get("machine") is None
                else "runtime.exec_parallel")
        with clock.span(name, phase="lower"):
            interpreter = real(program, **kwargs)
        run = interpreter.run

        def timed_run():
            with clock.span(name, phase="run"):
                outcome = run()
            costs.append(outcome.cost)
            return outcome

        interpreter.run = timed_run
        return interpreter

    tuning.make_interpreter = make
    try:
        yield
    finally:
        tuning.make_interpreter = real


def reference() -> Tuple[Dict[str, Any], str]:
    """Every cell computed under the *tree* backend — the interpreter
    the measured (compiled) backend is independent of — and the figure
    rendered from those cells."""
    saved = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = "tree"
    try:
        clear_pipeline_cache()
        cells: List[SpeedupCell] = [
            run_cell_task(Figure20Task(b, m, kind))
            for b in all_benchmarks() for m in MACHINES for kind in CONFIGS]
    finally:
        clear_pipeline_cache()
        if saved is None:
            del os.environ[BACKEND_ENV]
        else:
            os.environ[BACKEND_ENV] = saved
    data = {"workload": "figure20",
            "inputs": {b.name: benchmark_input_digest(b)
                       for b in all_benchmarks()},
            "cells": {f"{c.benchmark}/{c.machine}/{c.config}":
                      summarize(c.tuning) for c in cells}}
    return data, render_figure20(cells)
