"""Chrome trace-event JSON: the one projection, file output, and
structural validation.

:func:`stitch_spans` turns span dicts (the shape
:class:`~repro.trace.tracer.Tracer` records) into the "JSON Object
Format" Perfetto loads: a top-level object with a ``traceEvents`` array
of complete/instant/metadata events.  A ``--trace`` file and ``repro
trace-collect`` both come out of it.  The validators exist so the CI
smoke tests — and anyone scripting against a trace — can assert a trace
is loadable, and causally ordered, before shipping it to Perfetto.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

#: event phases this package emits
_KNOWN_PHASES = {"X", "i", "M"}


def _clamp_to_parents(spans: List[Dict[str, Any]]) -> None:
    """Child-after-parent monotonicity: residual skew between two nodes'
    clock estimates can leave a child a few hundred microseconds
    "before" its parent; move it forward (never backwards) so causal
    order survives into the rendered trace.  Parents are clamped before
    their children, so a clamp propagates down a chain of skewed hops."""
    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
    done: set = set()
    for span in spans:
        chain = []  # span and its not-yet-clamped ancestors, leaf first
        while span is not None and id(span) not in done:
            done.add(id(span))
            chain.append(span)
            span = by_id.get(span.get("parent_id") or "")
        for child in reversed(chain):
            parent = by_id.get(child.get("parent_id") or "")
            if parent is not None and child["_ts"] < parent["_ts"]:
                child["_ts"] = parent["_ts"]


def _assign_tids(spans: List[Dict[str, Any]]) -> List[int]:
    """One node's thread lanes: a span nested in the innermost span open
    on a lane stacks onto it (a flame stack), one that overlaps without
    nesting takes the next lane; sequential spans reuse lane 0."""
    tids = [0] * len(spans)
    stacks: List[List[float]] = []  # per tid: ends of its open spans
    for i in sorted(range(len(spans)),
                    key=lambda i: (spans[i]["_ts"], -spans[i]["_dur"])):
        start = spans[i]["_ts"]
        end = start + spans[i]["_dur"]
        for tid, stack in enumerate(stacks):
            while stack and stack[-1] <= start:
                stack.pop()
            if not stack or end <= stack[-1]:
                break
        else:
            tid, stack = len(stacks), []
            stacks.append(stack)
        stack.append(end)
        tids[i] = tid
    return tids


def stitch_spans(spans: Iterable[Dict[str, Any]], clock=None,
                 trace_id: Optional[str] = None,
                 label: str = "repro-cluster",
                 decisions: Optional[List[Dict[str, Any]]] = None,
                 site_decisions: Optional[List[Dict[str, Any]]] = None
                 ) -> Dict[str, Any]:
    """Project span dicts onto one Chrome trace-event object.

    Each node gets its own ``pid`` lane, named after the node.  Span
    wall timestamps are rebased by the node's estimated clock offset
    (``clock``: a :class:`~repro.obs.distributed.ClockModel`; None on
    one host), children are clamped to start no earlier than their
    parent, and the timeline shifts so the earliest span sits at t=0.
    A span without ``dur`` renders as an instant (``ph: "i"``).
    Decision records ride along under the non-standard top-level keys
    ``loopDecisions``/``siteDecisions``, which trace viewers ignore.
    """
    picked = [dict(span) for span in spans
              if trace_id is None or span.get("trace_id") == trace_id]
    for span in picked:
        span["node"] = str(span.get("node") or "?")
        dur = span.get("dur")
        span["_dur"] = 0.0 if dur is None else max(0.0, float(dur))
        ts = float(span.get("ts_wall", 0.0))
        span["_ts"] = clock.rebase(span["node"], ts) if clock else ts
    _clamp_to_parents(picked)

    t0 = min((s["_ts"] for s in picked), default=0.0)
    by_node: Dict[str, List[Dict[str, Any]]] = {}
    for span in picked:
        by_node.setdefault(span["node"], []).append(span)
    nodes = sorted(by_node)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "ts": 0,
         "args": {"name": node}}
        for pid, node in enumerate(nodes, 1)]
    for pid, node in enumerate(nodes, 1):
        node_spans = by_node[node]
        for span, tid in zip(node_spans, _assign_tids(node_spans)):
            args = dict(span.get("args") or {})
            for key in ("span_id", "parent_id", "trace_id"):
                if span.get(key):
                    args[key] = span[key]
            event = {"name": span.get("name", "span"),
                     "cat": span.get("cat", "cluster"),
                     "ts": round((span["_ts"] - t0) * 1e6, 1),
                     "pid": pid, "tid": tid}
            if span.get("dur") is None:
                event.update(ph="i", s="t")
            else:
                event.update(ph="X", dur=round(span["_dur"] * 1e6, 1))
            if args:
                event["args"] = args
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro.trace",
            "format": 1,
            "label": label,
            "nodes": nodes,
            "trace_ids": sorted({s["trace_id"] for s in picked
                                 if s.get("trace_id")}),
            "clock_offsets": clock.to_dict() if clock else {},
        },
        "loopDecisions": list(decisions or []),
        "siteDecisions": list(site_decisions or []),
    }


def write_chrome(tracer, path: str) -> None:
    """Write ``tracer``'s Chrome trace-event JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_chrome(), fh, sort_keys=True)
        fh.write("\n")


def validate_chrome_trace(obj: Any) -> List[str]:
    """Structural problems in a Chrome trace-event object (empty list =
    valid).  Checks the invariants Perfetto's importer relies on:
    the ``traceEvents`` array, per-event required keys, numeric
    non-negative timestamps, and durations on complete events."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be a JSON object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["top-level 'traceEvents' must be an array"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if not isinstance(event.get("name", ""), str):
            problems.append(f"{where}: 'name' must be a string")
        if ph == "M":
            continue  # metadata events need no timestamp semantics
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where}: complete event needs non-negative 'dur'")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
    decisions = obj.get("loopDecisions", [])
    if not isinstance(decisions, list):
        problems.append("'loopDecisions' must be an array when present")
    else:
        for i, d in enumerate(decisions):
            if not isinstance(d, dict) or "unit" not in d \
                    or "parallel" not in d:
                problems.append(f"loopDecisions[{i}]: not a decision "
                                f"record (needs 'unit' and 'parallel')")
    return problems


def parent_child_monotonic(chrome: Dict[str, Any]) -> List[str]:
    """Every X event whose ``args.parent_id`` names another event must
    not start before it.  Returns problems."""
    starts: Dict[str, float] = {}
    for event in chrome.get("traceEvents", ()):
        span_id = (event.get("args") or {}).get("span_id")
        if event.get("ph") == "X" and span_id:
            starts[span_id] = float(event.get("ts", 0.0))
    problems = []
    for event in chrome.get("traceEvents", ()):
        args = event.get("args") or {}
        parent = args.get("parent_id")
        if event.get("ph") == "X" and parent in starts \
                and float(event.get("ts", 0.0)) < starts[parent]:
            problems.append(
                f"span {args.get('span_id')} ({event.get('name')}) "
                f"starts before its parent {parent}")
    return problems


def load_chrome_trace(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
