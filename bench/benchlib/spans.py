"""Bench-owned spans: recorded around calls into each layer, from outside.

Spans are kept in memory and written at exit as Chrome trace-event JSON
(the format ``repro.trace.validate_chrome_trace`` checks).  A span's
*self time* is its duration minus the part of its interval that its
child spans cover; a layer's busy time is the sum of the self times of
the spans that carry the layer's name.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: index of the span that caused this one (-1: a root)
    parent: int = -1
    #: id of the operation the span belongs to (shared by its spans)
    op: Optional[str] = None
    pass_index: int = -1
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of one thread; the open span is the parent
    of the next one, and an op id is inherited from the parent."""

    def __init__(self):
        self.spans: List[Span] = []
        self.pass_index = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None, **args):
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent].op
        index = len(self.spans)
        span = Span(name, perf_counter(), parent=parent, op=op,
                    pass_index=self.pass_index, args=args)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span, in order.

    Children are clipped to their parent's interval and overlapping
    children are counted once (the union of their intervals)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def to_chrome(spans: Sequence[Span], label: str) -> Dict[str, Any]:
    """The spans as a Chrome trace-event object (complete events, one
    process, one thread; ``ts``/``dur`` in microseconds from the first
    span)."""
    origin = min((s.start for s in spans), default=0.0)
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
         "args": {"name": label}}]
    for index, span in enumerate(spans):
        args = {"id": index, "parent": span.parent, "pass": span.pass_index}
        if span.op is not None:
            args["op"] = span.op
        args.update(span.args)
        events.append({"ph": "X", "name": span.name,
                       "cat": span.name.split(".", 1)[0],
                       "pid": 1, "tid": 1,
                       "ts": (span.start - origin) * 1e6,
                       "dur": max(0.0, span.duration) * 1e6,
                       "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
