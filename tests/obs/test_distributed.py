"""Distributed-tracing primitives: contexts, the tracer as a span
recorder, clocks, stitching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.distributed import (ClockModel, TraceContext, new_trace_id,
                                   validate_trace_ctx)
from repro.trace.chrome import (parent_child_monotonic, stitch_spans,
                                validate_chrome_trace)
from repro.trace.tracer import Tracer


class TestTraceContext:
    def test_roundtrip(self):
        ctx = TraceContext()
        parsed = TraceContext.from_traceparent(ctx.to_traceparent())
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id
        assert parsed.sampled is True

    def test_traceparent_shape(self):
        header = TraceContext().to_traceparent()
        version, trace_id, span_id, flags = header.split("-")
        assert version == "00"
        assert len(trace_id) == 32
        assert len(span_id) == 16
        assert flags == "01"

    def test_child_shares_trace_id_with_fresh_span(self):
        root = TraceContext()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id

    def test_unsampled_flag_survives(self):
        ctx = TraceContext(sampled=False)
        assert ctx.to_traceparent().endswith("-00")
        assert TraceContext.from_traceparent(
            ctx.to_traceparent()).sampled is False

    @pytest.mark.parametrize("header", [
        "", "garbage", "00-abc-def-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",   # zero span id
        "zz-" + "1" * 32 + "-" + "2" * 16 + "-01",   # bad version hex
    ])
    def test_malformed_traceparent_rejected(self, header):
        with pytest.raises(ValueError):
            TraceContext.from_traceparent(header)

    def test_from_dict_none_is_none(self):
        assert TraceContext.from_dict(None) is None

    def test_from_dict_non_object_raises(self):
        with pytest.raises(ValueError):
            TraceContext.from_dict("00-aa-bb-01")

    def test_validate_trace_ctx(self):
        assert validate_trace_ctx(None) is None
        assert validate_trace_ctx(TraceContext().to_dict()) is None
        assert "trace_ctx" in validate_trace_ctx({"traceparent": "nope"})
        assert "trace_ctx" in validate_trace_ctx([1, 2])


class TestSpanRecorder:
    """:class:`Tracer` as the control plane's span recorder."""

    def test_record_and_drain(self):
        rec = Tracer(label="node-a")
        ctx = TraceContext()
        rec.record("execute", ctx.child(), cat="worker",
                   start_wall=100.0, duration=0.5,
                   parent_id=ctx.span_id, job_id="job-1")
        spans = rec.drain()
        assert len(spans) == 1 and rec.spans() == []
        span = spans[0]
        assert span["name"] == "execute"
        assert span["node"] == "node-a"
        assert span["trace_id"] == ctx.trace_id
        assert span["parent_id"] == ctx.span_id
        assert span["ts_wall"] == 100.0 and span["dur"] == 0.5
        assert span["args"]["job_id"] == "job-1"

    def test_span_context_manager_times_and_parents(self):
        rec = Tracer(label="node-a")
        root = TraceContext()
        downstream = root.child()
        with rec.span("lookup", cat="cache", digest="d1"):
            pass
        rec.record("lookup", downstream, cat="cache",
                   parent_id=root.span_id, digest="d1")
        timed, linked = rec.spans()
        assert timed["node"] == "node-a" and timed["dur"] >= 0.0
        assert timed["args"]["digest"] == "d1"
        assert linked["parent_id"] == root.span_id
        assert linked["span_id"] == downstream.span_id
        assert linked["dur"] >= 0.0
        assert linked["args"]["digest"] == "d1"

    def test_span_records_error_class_on_exception(self):
        rec = Tracer(label="node-a")
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError("x")
        (span,) = rec.drain()
        assert span["args"]["error"] == "RuntimeError"

    def test_bounded_buffer_counts_drops(self):
        rec = Tracer(label="node-a", keep=3)
        ctx = TraceContext()
        for i in range(5):
            rec.record(f"s{i}", ctx.child(), start_wall=float(i))
        assert len(rec.spans()) == 3
        assert rec.dropped == 2
        assert [s["name"] for s in rec.drain()] == ["s2", "s3", "s4"]

    def test_drain_limit_keeps_pending(self):
        rec = Tracer(label="node-a")
        ctx = TraceContext()
        for i in range(4):
            rec.record(f"s{i}", ctx.child())
        first = rec.drain(limit=3)
        assert [s["name"] for s in first] == ["s0", "s1", "s2"]
        assert [s["name"] for s in rec.drain()] == ["s3"]


class TestClockModel:
    def test_min_filter_keeps_least_delayed_sample(self):
        clock = ClockModel()
        # true offset 2.0s; delays 0.5, 0.1, 0.9
        clock.observe("w", remote_wall=100.0, local_wall=102.5)
        clock.observe("w", remote_wall=200.0, local_wall=202.1)
        clock.observe("w", remote_wall=300.0, local_wall=302.9)
        assert clock.offset("w") == pytest.approx(2.1)
        assert clock.rebase("w", 50.0) == pytest.approx(52.1)

    def test_unknown_node_offset_is_zero(self):
        clock = ClockModel()
        assert clock.offset("nobody") == 0.0
        assert clock.rebase("nobody", 7.0) == 7.0

    def test_roundtrip_through_dict(self):
        clock = ClockModel()
        clock.observe("w", 10.0, local_wall=10.25)
        exported = clock.to_dict()
        assert exported["w"]["samples"] == 1
        rebuilt = ClockModel.from_offsets(exported)
        assert rebuilt.offset("w") == pytest.approx(0.25)


def _span(node, name, ctx, parent=None, ts=0.0, dur=0.1, cat="x", **args):
    span = {"name": name, "cat": cat, "node": node,
            "trace_id": ctx.trace_id, "span_id": ctx.span_id,
            "parent_id": parent.span_id if parent else None,
            "ts_wall": ts, "dur": dur}
    if args:
        span["args"] = args
    return span


class TestStitching:
    def test_nodes_get_distinct_pid_lanes(self):
        root = TraceContext()
        spans = [_span("gateway", "job", root.child(), root, ts=1.0),
                 _span("worker-0", "execute", root.child(), root, ts=1.1)]
        chrome = stitch_spans(spans)
        meta = {e["args"]["name"]: e["pid"]
                for e in chrome["traceEvents"] if e.get("ph") == "M"}
        assert set(meta) == {"gateway", "worker-0"}
        assert meta["gateway"] != meta["worker-0"]
        assert not validate_chrome_trace(chrome)

    def test_rebase_applies_clock_offsets(self):
        root = TraceContext()
        clock = ClockModel.from_offsets({"worker-0": {"offset": -5.0,
                                                      "samples": 3}})
        spans = [_span("gateway", "job", root.child(), root, ts=10.0,
                       dur=1.0),
                 # worker clock runs 5s ahead; raw ts is later on paper
                 _span("worker-0", "execute", root.child(), root,
                       ts=15.2, dur=0.2)]
        chrome = stitch_spans(spans, clock)
        xs = {e["name"]: e["ts"] for e in chrome["traceEvents"]
              if e.get("ph") == "X"}
        # rebased: worker 15.2 - 5.0 = 10.2, i.e. 0.2s after the job span
        assert xs["execute"] - xs["job"] == pytest.approx(0.2e6, abs=1.0)

    def test_child_clamped_to_parent_start(self):
        root = TraceContext()
        parent_ctx = root.child()
        child_ctx = root.child()
        spans = [_span("gateway", "parent", parent_ctx, root, ts=10.0),
                 # residual skew: child "starts" before its parent
                 _span("worker-0", "child", child_ctx, parent_ctx,
                       ts=9.9995)]
        chrome = stitch_spans(spans)
        assert parent_child_monotonic(chrome) == []
        xs = {e["name"]: e["ts"] for e in chrome["traceEvents"]
              if e.get("ph") == "X"}
        assert xs["child"] >= xs["parent"]

    def test_trace_id_filter(self):
        a, b = TraceContext(), TraceContext()
        spans = [_span("g", "one", a.child(), ts=1.0),
                 _span("g", "two", b.child(), ts=2.0)]
        chrome = stitch_spans(spans, trace_id=a.trace_id)
        names = [e["name"] for e in chrome["traceEvents"]
                 if e.get("ph") == "X"]
        assert names == ["one"]
        assert chrome["otherData"]["trace_ids"] == [a.trace_id]

    def test_decisions_ride_along(self):
        root = TraceContext()
        spans = [_span("g", "job", root.child(), root, ts=1.0)]
        chrome = stitch_spans(
            spans,
            decisions=[{"unit": "MAIN", "var": "I", "parallel": True}],
            site_decisions=[{"callee": "F", "site_id": 1}])
        assert chrome["loopDecisions"] == [
            {"unit": "MAIN", "var": "I", "parallel": True}]
        assert chrome["siteDecisions"] == [{"callee": "F", "site_id": 1}]
        assert not validate_chrome_trace(chrome)

    def test_spans_by_trace_groups(self):
        a, b = TraceContext(), TraceContext()
        spans = [_span("g", "s1", a.child()), _span("g", "s2", a.child()),
                 _span("g", "s3", b.child())]
        for trace, count in ((a, 2), (b, 1)):
            chrome = stitch_spans(spans, trace_id=trace.trace_id)
            assert len([e for e in chrome["traceEvents"]
                        if e.get("ph") == "X"]) == count

    def test_monotonic_detects_disorder(self):
        # hand-build a chrome dict whose child precedes its parent
        chrome = {"traceEvents": [
            {"ph": "X", "name": "parent", "pid": 1, "tid": 0,
             "ts": 100.0, "dur": 10.0, "args": {"span_id": "p", }},
            {"ph": "X", "name": "child", "pid": 1, "tid": 1,
             "ts": 50.0, "dur": 5.0,
             "args": {"span_id": "c", "parent_id": "p"}},
        ]}
        assert parent_child_monotonic(chrome)

    def test_empty_input_is_valid(self):
        chrome = stitch_spans([])
        assert not validate_chrome_trace(chrome)
        assert chrome["otherData"]["nodes"] == []

    def test_clamp_reaches_a_grandchild_two_skewed_hops_away(self):
        # G (node a, 10.0) -> P (node b, 8.0) -> C (node c, 3.0): P is
        # clamped to 10.0, and C must follow it there, not stop at 8.0
        root = TraceContext()
        g, p, c = root.child(), root.child(), root.child()
        spans = [_span("c", "C", c, p, ts=3.0),
                 _span("b", "P", p, g, ts=8.0),
                 _span("a", "G", g, ts=10.0)]
        chrome = stitch_spans(spans)
        assert parent_child_monotonic(chrome) == []
        xs = {e["name"]: e["ts"] for e in chrome["traceEvents"]
              if e.get("ph") == "X"}
        assert xs["G"] <= xs["P"] <= xs["C"]

    def test_nested_spans_share_a_tid_and_overlaps_do_not(self):
        root = TraceContext()
        spans = [_span("n", "outer", root.child(), ts=0.0, dur=1.0),
                 _span("n", "inner", root.child(), ts=0.2, dur=0.5),
                 _span("n", "leaf", root.child(), ts=0.3, dur=0.1),
                 _span("n", "after", root.child(), ts=2.0, dur=0.1),
                 _span("n", "straddle", root.child(), ts=0.9, dur=0.5)]
        tids = {e["name"]: e["tid"] for e in stitch_spans(spans)[
            "traceEvents"] if e.get("ph") == "X"}
        assert tids["outer"] == tids["inner"] == tids["leaf"] \
            == tids["after"] == 0
        assert tids["straddle"] != 0

    def test_span_without_dur_is_an_instant(self):
        spans = [{"name": "mark", "cat": "fuzz", "node": "n",
                  "ts_wall": 1.0, "args": {"n": 2}}]
        (_meta, event) = stitch_spans(spans)["traceEvents"]
        assert event["ph"] == "i" and event["args"] == {"n": 2}
        assert "dur" not in event


@st.composite
def _span_forest(draw):
    """Spans over a few nodes, each parented on an earlier one or a
    root, with arbitrary starts, and per-node clock offsets."""
    nodes = draw(st.lists(st.sampled_from("abcde"), min_size=1,
                          max_size=5, unique=True))
    root = TraceContext()
    times = st.floats(min_value=0.0, max_value=100.0)
    spans = []
    for i in range(draw(st.integers(min_value=1, max_value=25))):
        parent = draw(st.none() | st.integers(0, len(spans) - 1)) \
            if spans else None
        spans.append({
            "name": f"s{i}", "cat": "x", "node": draw(st.sampled_from(nodes)),
            "trace_id": root.trace_id, "span_id": f"{i:016x}",
            "parent_id": None if parent is None
            else spans[parent]["span_id"],
            "ts_wall": draw(times), "dur": draw(times)})
    offsets = {node: draw(st.floats(min_value=-50.0, max_value=50.0))
               for node in nodes}
    return draw(st.permutations(spans)), offsets


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_span_forest())
def test_stitched_forest_is_causal_complete_and_valid(forest):
    spans, offsets = forest
    chrome = stitch_spans(spans, ClockModel.from_offsets(offsets))
    assert parent_child_monotonic(chrome) == []
    ids = [e["args"]["span_id"] for e in chrome["traceEvents"]
           if e.get("ph") == "X"]
    assert sorted(ids) == sorted(s["span_id"] for s in spans)
    assert validate_chrome_trace(chrome) == []


def test_new_trace_id_is_32_hex():
    tid = new_trace_id()
    assert len(tid) == 32
    int(tid, 16)
