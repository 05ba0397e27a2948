"""Exactly-once decision records when a crash-retried job's trace
exports are merged: a worker that exported partially, was SIGKILLed,
and re-ran contributes each :class:`LoopDecision` / :class:`SiteDecision`
once, while the span events of both attempts stay on the timeline."""

import json
import os
import signal

import pytest

from repro.experiments.executor import (WorkerCrashError, WorkerPool,
                                        in_worker)
from repro.trace.decisions import LoopDecision, SiteDecision
from repro.trace.tracer import Tracer


def _loop(unit, var, origin=None, parallelized=True):
    return LoopDecision(unit=unit, var=var, origin=origin,
                        parallelized=parallelized, benchmark="bench",
                        config="annotation")


def _site(unit, callee, site_id, action="body"):
    return SiteDecision(unit=unit, callee=callee, site_id=site_id,
                        action=action, benchmark="bench",
                        config="annotation")


def _export(decisions=(), sites=(), job="digest-1", label="child"):
    tracer = Tracer(label=label)
    for d in decisions:
        tracer.decision(d)
    for s in sites:
        tracer.site(s)
    return tracer.export(job=job)


class TestMergeDedup:
    def test_same_export_merged_twice_counts_once(self):
        parent = Tracer(label="parent")
        exported = _export([_loop("MAIN", "I")], [_site("MAIN", "F", 1)])
        parent.merge(exported)
        parent.merge(exported)
        assert len(parent.decisions) == 1
        assert len(parent.site_decisions) == 1
        # the decision *instant* events are not deduplicated: both
        # attempts really happened and belong on the timeline
        assert len([e for e in parent.to_chrome()["traceEvents"]
                    if e.get("cat") == "decision"]) == 2

    def test_partial_first_attempt_then_full_retry(self):
        parent = Tracer(label="parent")
        partial = _export([_loop("MAIN", "I")])
        full = _export([_loop("MAIN", "I"), _loop("MAIN", "J"),
                        _loop("SOLVE", "K")])
        parent.merge(partial)
        parent.merge(full)
        assert sorted((d.unit, d.var) for d in parent.decisions) \
            == [("MAIN", "I"), ("MAIN", "J"), ("SOLVE", "K")]

    def test_key_covers_benchmark_and_config(self):
        parent = Tracer(label="parent")
        a = _loop("MAIN", "I")
        b = _loop("MAIN", "I")
        b.config = "conventional"
        parent.merge(_export([a]))
        parent.merge(_export([b]))
        assert len(parent.decisions) == 2

    def test_loop_identity_includes_origin(self):
        # two reachable copies of an inlined loop are distinct records
        parent = Tracer(label="parent")
        parent.merge(_export([_loop("MAIN", "I", origin="SUB:DO-3")]))
        parent.merge(_export([_loop("MAIN", "I", origin="SUB2:DO-3")]))
        assert len(parent.decisions) == 2

    def test_different_jobs_never_dedup(self):
        parent = Tracer(label="parent")
        parent.merge(_export([_loop("MAIN", "I")], job="digest-1"))
        parent.merge(_export([_loop("MAIN", "I")], job="digest-2"))
        assert len(parent.decisions) == 2

    def test_untagged_exports_merge_verbatim(self):
        # legacy in-process merges (run_tasks fan-in) carry no job tag
        # and never crash-retry; they keep the fast path
        parent = Tracer(label="parent")
        exported = _export([_loop("MAIN", "I")], job=None)
        exported.pop("job", None)
        parent.merge(exported)
        parent.merge(exported)
        assert len(parent.decisions) == 2

    def test_job_parameter_overrides_export_tag(self):
        parent = Tracer(label="parent")
        exported = _export([_loop("MAIN", "I")], job="digest-1")
        parent.merge(exported, job="attempt-a")
        parent.merge(exported, job="attempt-b")
        assert len(parent.decisions) == 2
        parent.merge(exported, job="attempt-a")
        assert len(parent.decisions) == 2

    def test_site_identity_is_callee_and_site_id(self):
        parent = Tracer(label="parent")
        parent.merge(_export(sites=[_site("MAIN", "F", 1)]))
        parent.merge(_export(sites=[_site("MAIN", "F", 1),
                                    _site("MAIN", "F", 2),
                                    _site("MAIN", "G", 1)]))
        assert sorted((s.callee, s.site_id)
                      for s in parent.site_decisions) \
            == [("F", 1), ("F", 2), ("G", 1)]

    def test_disabled_tracer_ignores_merge(self):
        parent = Tracer(enabled=False)
        parent.merge(_export([_loop("MAIN", "I")]))
        assert parent.decisions == []


# -- the SIGKILLed-worker regression ---------------------------------------

def _traced_attempt(spec):
    """One job attempt inside a pool worker.

    Records this attempt's decisions, persists the trace export the way
    a worker ships partial telemetry, and on the first attempt dies the
    way a real crash does (SIGKILL in a pool worker, WorkerCrashError
    inline).  The retry sees the marker, finds one more loop, and
    returns the full export.
    """
    first = not os.path.exists(spec["marker"])
    tracer = Tracer(label="attempt")
    tracer.decision(_loop("MAIN", "I"))
    tracer.decision(_loop("MAIN", "J"))
    if not first:
        tracer.decision(_loop("SOLVE", "K"))
    exported = tracer.export(job=spec["job"])
    suffix = ".1" if first else ".2"
    with open(spec["export"] + suffix, "w", encoding="utf-8") as fh:
        json.dump(exported, fh)
    if first:
        with open(spec["marker"], "w") as fh:
            fh.write("crashed\n")
        if in_worker():
            os.kill(os.getpid(), signal.SIGKILL)
        raise WorkerCrashError("simulated worker crash")
    return exported


class TestSigkilledWorkerRegression:
    def test_decisions_counted_once_across_kill_and_retry(self, tmp_path):
        pool = WorkerPool(workers=1, inline=False)
        if pool.inline:
            pytest.skip("process pool unavailable in this sandbox")
        spec = {"marker": str(tmp_path / "kill.marker"),
                "export": str(tmp_path / "export.json"),
                "job": "digest-sigkill"}
        parent = Tracer(label="parent")
        try:
            with pytest.raises(WorkerCrashError):
                pool.run(_traced_attempt, spec, timeout=30)
            # the first attempt got far enough to ship a partial export
            with open(spec["export"] + ".1", encoding="utf-8") as fh:
                parent.merge(json.load(fh))
            assert len(parent.decisions) == 2
            retry = pool.run(_traced_attempt, spec, timeout=30)
        finally:
            pool.shutdown()
        parent.merge(retry)
        assert sorted((d.unit, d.var) for d in parent.decisions) \
            == [("MAIN", "I"), ("MAIN", "J"), ("SOLVE", "K")]
        # both attempts' instants remain on the timeline: I and J twice,
        # K once
        instants = [e for e in parent.to_chrome()["traceEvents"]
                    if e.get("cat") == "decision"]
        assert len(instants) == 5
