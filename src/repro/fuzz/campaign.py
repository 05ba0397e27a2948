"""Campaign driver: generate → oracle fan-out → shrink → corpus.

A campaign streams seeded generator/oracle tasks through
:func:`repro.experiments.executor.run_tasks` (the ``-j`` fan-out over the
process pool) in batches, honouring either a program ``count``, a wall-clock
``time_budget``, or both.  Per-program seeds come from
:func:`repro.fuzz.generator.derive_seed`, so a campaign is fully
deterministic for a fixed base seed regardless of worker count or batch
boundaries.

Failures are shrunk **in the parent** (the worker only reports the seed
and the mismatch list; the parent regenerates the program from its seed
— cheap, deterministic, and keeps worker results trivially picklable)
and persisted to the corpus.  Campaign statistics are exported as
``repro.trace`` instant events so a traced campaign shows up on the same
timeline as the pipelines it exercises.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.executor import resolve_jobs, run_tasks
from repro.fuzz.corpus import CorpusEntry, save_entry
from repro.obs import metrics as obs_metrics
from repro.fuzz.generator import (FuzzProgram, GeneratorOptions, derive_seed,
                                  generate)
from repro.fuzz.oracle import Mismatch, run_oracle
from repro.fuzz.shrinker import ShrinkResult, shrink
from repro.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class FuzzTask:
    """One picklable work item: generate program ``seed``, run the
    oracle, report back."""

    index: int
    seed: int
    options: GeneratorOptions = GeneratorOptions()


def run_fuzz_task(task: FuzzTask) -> Dict:
    """Worker body (module-level so the process pool can pickle it)."""
    program = generate(task.seed, task.options)
    result = run_oracle(program.sources, program.annotations)
    return {
        "index": task.index,
        "seed": task.seed,
        "passed": result.passed,
        "configs_run": result.configs_run,
        "parallel_loops": dict(result.parallel_loops),
        "features": list(program.features),
        "lines": program.line_count(),
        "mismatches": [(m.kind, m.config, m.detail)
                       for m in result.mismatches],
    }


@dataclass
class FailureRecord:
    """One failing program, post-shrink."""

    index: int
    seed: int
    mismatches: List[Mismatch]
    program: FuzzProgram
    shrunk: Optional[ShrinkResult] = None
    corpus_path: Optional[str] = None

    def describe(self) -> str:
        head = self.mismatches[0]
        lines = (self.shrunk.line_count() if self.shrunk
                 else self.program.line_count())
        return (f"seed {self.seed}: {head.describe()} "
                f"({lines}-line repro)")


@dataclass
class CampaignStats:
    programs: int = 0
    configs_run: int = 0
    failing_programs: int = 0
    mismatches: int = 0
    shrink_steps: int = 0
    parallel_loops: Dict[str, int] = field(default_factory=dict)
    features: Counter = field(default_factory=Counter)
    source_lines: int = 0
    elapsed_seconds: float = 0.0

    def summary(self) -> str:
        return (f"{self.programs} programs, {self.configs_run} configs, "
                f"{self.mismatches} mismatches in "
                f"{self.failing_programs} programs, "
                f"{self.shrink_steps} shrink steps, "
                f"{self.elapsed_seconds:.1f}s")


@dataclass
class CampaignResult:
    stats: CampaignStats
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_campaign(seed: int = 0,
                 count: Optional[int] = None,
                 time_budget: Optional[float] = None,
                 jobs: Optional[int] = None,
                 tracer: Optional[Tracer] = None,
                 corpus_dir: Optional[str] = None,
                 options: GeneratorOptions = GeneratorOptions(),
                 do_shrink: bool = True,
                 progress=None) -> CampaignResult:
    """Run one fuzzing campaign.

    ``count`` bounds the number of programs, ``time_budget`` (seconds)
    bounds wall-clock; with both unset a single default batch of 100
    programs runs.  ``progress`` (optional callable) receives one line
    per batch.
    """
    tracer = tracer or NULL_TRACER
    if count is None and time_budget is None:
        count = 100
    effective_jobs = resolve_jobs(jobs)
    batch_size = max(8, effective_jobs * 4)

    stats = CampaignStats()
    failures: List[FailureRecord] = []
    start = time.perf_counter()
    index = 0
    with tracer.span("fuzz campaign", cat="fuzz", seed=seed):
        while True:
            if count is not None and index >= count:
                break
            if time_budget is not None \
                    and time.perf_counter() - start >= time_budget:
                break
            size = batch_size
            if count is not None:
                size = min(size, count - index)
            tasks = [FuzzTask(index + i, derive_seed(seed, index + i),
                              options)
                     for i in range(size)]
            index += size
            outcomes = run_tasks(run_fuzz_task, tasks, jobs=jobs,
                                 tracer=tracer, label="fuzz")
            for outcome in outcomes:
                _absorb(stats, outcome)
                if not outcome["passed"]:
                    failures.append(_handle_failure(
                        outcome, options, tracer, corpus_dir, do_shrink,
                        stats))
            if progress is not None:
                progress(f"  [{stats.programs} programs, "
                         f"{stats.mismatches} mismatches, "
                         f"{time.perf_counter() - start:.1f}s]")
    stats.elapsed_seconds = time.perf_counter() - start
    _persist_stats(stats, seed)
    tracer.instant("fuzz-campaign", cat="fuzz", seed=seed,
                   programs=stats.programs, configs_run=stats.configs_run,
                   mismatches=stats.mismatches,
                   failing_programs=stats.failing_programs,
                   shrink_steps=stats.shrink_steps,
                   elapsed_seconds=round(stats.elapsed_seconds, 3))
    return CampaignResult(stats, failures)


def _absorb(stats: CampaignStats, outcome: Dict) -> None:
    stats.programs += 1
    stats.configs_run += outcome["configs_run"]
    stats.source_lines += outcome["lines"]
    stats.features.update(outcome["features"])
    for config, n in outcome["parallel_loops"].items():
        stats.parallel_loops[config] = \
            stats.parallel_loops.get(config, 0) + n
    # parent-side oracle-verdict counters (one _absorb per program, so
    # any -j yields identical values)
    obs_metrics.counter("repro_fuzz_programs_total",
                        "fuzzed programs by oracle verdict").inc(
        verdict="passed" if outcome["passed"] else "failed")
    obs_metrics.counter("repro_fuzz_configs_total",
                        "configurations exercised by the fuzzer").inc(
        outcome["configs_run"])
    if not outcome["passed"]:
        stats.failing_programs += 1
        stats.mismatches += len(outcome["mismatches"])
        mismatches = obs_metrics.counter(
            "repro_fuzz_mismatches_total", "oracle mismatches by kind")
        for kind, _config, _detail in outcome["mismatches"]:
            mismatches.inc(kind=kind)


def _persist_stats(stats: CampaignStats, seed: int) -> None:
    """Drop the latest campaign stats where the dashboard finds them
    (best-effort; the cache dir may be unwritable)."""
    from repro.perfect.suite import cache_dir
    payload = {
        "seed": seed,
        "programs": stats.programs,
        "configs_run": stats.configs_run,
        "failing_programs": stats.failing_programs,
        "mismatches": stats.mismatches,
        "shrink_steps": stats.shrink_steps,
        "source_lines": stats.source_lines,
        "elapsed_seconds": round(stats.elapsed_seconds, 3),
        "parallel_loops": dict(stats.parallel_loops),
        "features": dict(stats.features),
    }
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        path = os.path.join(cache_dir(), "fuzz_latest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError:
        pass


def _handle_failure(outcome: Dict, options: GeneratorOptions,
                    tracer: Tracer, corpus_dir: Optional[str],
                    do_shrink: bool,
                    stats: CampaignStats) -> FailureRecord:
    """Regenerate the failing program from its seed, shrink it, and
    persist the repro."""
    seed = outcome["seed"]
    mismatches = [Mismatch(kind, config, detail)
                  for kind, config, detail in outcome["mismatches"]]
    program = generate(seed, options)
    record = FailureRecord(outcome["index"], seed, mismatches, program)
    if do_shrink:
        record.shrunk = shrink(program.sources, program.annotations)
        if record.shrunk is not None:
            stats.shrink_steps += record.shrunk.steps
    head = mismatches[0]
    tracer.instant("fuzz-mismatch", cat="fuzz", seed=seed,
                   kind=head.kind, config=head.config,
                   shrink_steps=(record.shrunk.steps
                                 if record.shrunk else 0))
    if corpus_dir is not None:
        entry = CorpusEntry(
            seed=seed, kind=head.kind, config=head.config,
            detail=head.detail, features=program.features,
            sources=program.sources, annotations=program.annotations,
            shrunk_sources=(record.shrunk.sources
                            if record.shrunk else None),
            shrunk_annotations=(record.shrunk.annotations
                                if record.shrunk else ""),
            shrink_steps=(record.shrunk.steps if record.shrunk else 0),
        )
        record.corpus_path = save_entry(corpus_dir, entry)
    return record
