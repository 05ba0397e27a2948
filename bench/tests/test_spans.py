"""Self-time arithmetic of the bench-owned spans."""

import pytest

from benchlib.spans import Span, SpanRecorder, self_times, to_chrome


def span(name, start, end, parent=-1):
    return Span(name, float(start), float(end), parent=parent)


def test_self_time_is_duration_minus_children():
    spans = [span("op", 0, 10), span("a", 1, 4, 0), span("b", 5, 9, 0)]
    assert self_times(spans) == [3.0, 3.0, 4.0]


def test_nested_children_count_once_per_level():
    # the grandchild is covered by the child, not subtracted twice
    spans = [span("op", 0, 10), span("child", 2, 8, 0),
             span("grandchild", 3, 5, 1)]
    assert self_times(spans) == [4.0, 4.0, 2.0]


def test_overlapping_children_are_a_union():
    spans = [span("op", 0, 10), span("a", 1, 6, 0), span("b", 4, 8, 0),
             span("c", 5, 7, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent():
    spans = [span("op", 2, 6), span("early", 0, 3, 0), span("late", 5, 9, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_recorder_links_parent_and_inherits_the_op_id():
    recorder = SpanRecorder()
    recorder.pass_index = 3
    with recorder.span("bench.op", op="ADM/none"):
        with recorder.span("polaris.run"):
            pass
        with recorder.span("fortran.unparse"):
            pass
    root, first, second = recorder.spans
    assert (root.parent, first.parent, second.parent) == (-1, 0, 0)
    assert first.op == second.op == "ADM/none"
    assert {s.pass_index for s in recorder.spans} == {3}
    assert root.start <= first.start <= first.end <= second.start <= root.end
    own = self_times(recorder.spans)
    assert sum(own) == pytest.approx(root.duration)


def test_chrome_export_is_valid():
    from repro.trace import validate_chrome_trace
    recorder = SpanRecorder()
    with recorder.span("bench.op", op="x"):
        with recorder.span("polaris.run", phase="run"):
            pass
    trace = to_chrome(recorder.spans, "test")
    assert validate_chrome_trace(trace) == []
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["bench.op", "polaris.run"]
    assert complete[1]["args"]["parent"] == 0
    assert complete[1]["args"]["op"] == "x"
