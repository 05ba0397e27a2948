"""Tracer unit tests: span recording, the disabled fast path, the
export/merge boundary, decision records, and the Chrome validator."""

import dataclasses
import glob
import json
import os

import pytest

from repro.fortran.fixedform import (Diagnostic, parallelize_source,
                                     parse_source_tolerant)
from repro.trace import (NULL_TRACER, LoopDecision, SiteDecision, Tracer,
                         count_parallel, read_decisions_jsonl,
                         validate_chrome_trace, write_chrome,
                         write_decisions_jsonl)
from repro.trace.chrome import load_chrome_trace
from repro.trace.tracer import _NULL_SPAN


def _decision(**kwargs):
    base = dict(unit="MAIN", var="I", origin="MAIN:DO-10",
                parallel=True, benchmark="ADM", config="none")
    base.update(kwargs)
    return LoopDecision(**base)


class TestSpans:
    def test_span_records_complete_event(self):
        t = Tracer(label="t", pid=1)
        with t.span("parse", cat="pipeline", files=3):
            pass
        assert len(t.events) == 1
        e = t.events[0]
        assert e["ph"] == "X" and e["name"] == "parse"
        assert e["cat"] == "pipeline"
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert e["args"] == {"files": 3}

    def test_nested_spans_nest_on_the_timeline(self):
        t = Tracer(pid=1)
        with t.span("outer"):
            with t.span("inner"):
                pass
        inner, outer = t.events  # inner closes first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_instant_event(self):
        t = Tracer(pid=1)
        t.instant("marker", cat="executor", n=2)
        (e,) = t.events
        assert e["ph"] == "i" and e["args"] == {"n": 2}


class TestDisabled:
    def test_disabled_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("x"):
            pass
        t.instant("y")
        t.decision(_decision())
        assert t.events == [] and t.decisions == []

    def test_disabled_span_is_the_shared_noop(self):
        assert NULL_TRACER.span("a") is _NULL_SPAN
        assert NULL_TRACER.span("b") is NULL_TRACER.span("c")

    def test_merge_into_disabled_is_a_noop(self):
        child = Tracer(pid=7)
        with child.span("work"):
            pass
        NULL_TRACER.merge(child.export())
        assert NULL_TRACER.events == []


class TestExportMerge:
    def test_roundtrip_preserves_events_and_decisions(self):
        child = Tracer(label="worker", pid=42)
        with child.span("work"):
            pass
        child.decision(_decision())
        exported = json.loads(json.dumps(child.export()))  # wire-safe

        parent = Tracer(label="parent", pid=1)
        parent.merge(exported)
        work = [e for e in parent.events if e["name"] == "work"]
        assert len(work) == 1 and work[0]["pid"] == 42
        assert len(parent.decisions) == 1
        assert parent.decisions[0].origin == "MAIN:DO-10"

    def test_merge_rebases_child_timestamps(self):
        parent = Tracer(pid=1)
        child = Tracer(pid=2)
        child._wall0 = parent._wall0 + 1.5  # child started 1.5s later
        with child.span("late"):
            pass
        parent.merge(child.export())
        (e,) = [e for e in parent.events if e["name"] == "late"]
        assert e["ts"] >= 1.5e6  # rebased into the parent's timeline

    def test_merge_none_is_a_noop(self):
        parent = Tracer(pid=1)
        parent.merge(None)
        assert parent.events == []


class TestDecisions:
    def test_decision_dict_roundtrip(self):
        d = _decision(parallel=False, reason="dependence", detail="A",
                      private=("T",), reductions=(("SUM", "+"),),
                      profitability="not-evaluated",
                      dep_tests={"assumed_dependent": 1}, reachable=False)
        back = LoopDecision.from_dict(json.loads(json.dumps(d.to_dict())))
        assert back == d

    def test_to_dict_is_what_asdict_made_of_a_corpus_run(self):
        """``to_dict`` builds its dict field by field; ``asdict`` (which
        it replaced: a recursive deep copy of flat records) stays the
        reference, over every record one corpus run produces."""
        corpus = os.path.join(os.path.dirname(__file__), "..", "fortran",
                              "corpus", "*.f")
        records = []
        for path in sorted(glob.glob(corpus)):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            name = os.path.basename(path)
            records += parse_source_tolerant(text, name)[1]
            for mode in ("inferred", "demand"):
                tracer = Tracer(label=name)
                parallelize_source({name: text}, annotations_mode=mode,
                                   tracer=tracer)
                records += tracer.decisions + tracer.site_decisions
        kinds = {type(r) for r in records}
        assert kinds == {LoopDecision, SiteDecision, Diagnostic}
        for record in records:
            expected = dataclasses.asdict(record)
            if isinstance(record, LoopDecision):
                expected["private"] = list(record.private)
                expected["reductions"] = [list(r) for r in record.reductions]
            got = record.to_dict()
            assert got == expected and list(got) == list(expected)
            json.dumps(got)
            assert type(record).from_dict(got) == record
            if isinstance(record, LoopDecision):
                assert got["dep_tests"] is not record.dep_tests
        loops = [r for r in records if isinstance(r, LoopDecision)]
        for nested in ("reductions", "private", "dep_tests"):
            assert any(getattr(r, nested) for r in loops), nested

    def test_count_parallel_protocol(self):
        decisions = [
            _decision(origin="L1"),
            _decision(origin="L1", unit="MAIN_CLONE"),  # same origin: once
            _decision(origin="L2"),
            _decision(origin="L3", reachable=False),    # unreachable
            _decision(origin=None),                     # generated loop
            _decision(origin="L4", parallel=False),     # serial
            _decision(origin="L1", config="annotation"),
        ]
        assert count_parallel(decisions) == {
            ("ADM", "none"): 2, ("ADM", "annotation"): 1}

    def test_jsonl_roundtrip(self, tmp_path):
        decisions = [_decision(), _decision(origin="L2", parallel=False,
                                            reason="dependence")]
        path = str(tmp_path / "d.jsonl")
        write_decisions_jsonl(decisions, path)
        assert read_decisions_jsonl(path) == decisions


class TestChrome:
    def test_valid_trace_passes_validator(self, tmp_path):
        t = Tracer(label="t", pid=1)
        with t.span("parse"):
            pass
        t.instant("mark")
        t.decision(_decision())
        assert validate_chrome_trace(t.to_chrome()) == []
        path = str(tmp_path / "out.json")
        write_chrome(t, path)
        loaded = load_chrome_trace(path)
        assert validate_chrome_trace(loaded) == []
        assert loaded["loopDecisions"][0]["origin"] == "MAIN:DO-10"

    def test_process_name_metadata_per_pid_lane(self):
        parent = Tracer(label="main", pid=1)
        child = Tracer(pid=2)
        with child.span("w"):
            pass
        parent.merge(child.export())
        meta = [e for e in parent.to_chrome()["traceEvents"]
                if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {1, 2}

    @pytest.mark.parametrize("broken, fragment", [
        ({"traceEvents": {}}, "array"),
        ({"traceEvents": [{"ph": "Q", "name": "x", "pid": 1, "tid": 0,
                           "ts": 0}]}, "phase"),
        ({"traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "ts": 0,
                           "dur": 1}]}, "name"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0,
                           "ts": -5, "dur": 1}]}, "ts"),
        ({"traceEvents": [], "loopDecisions": [{"var": "I"}]}, "unit"),
    ])
    def test_validator_flags_malformed_traces(self, broken, fragment):
        errors = validate_chrome_trace(broken)
        assert errors and any(fragment in e for e in errors)
