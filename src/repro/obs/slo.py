"""Declarative SLOs evaluated over loadtest reports and telemetry
windows.

A spec is plain JSON (committed next to the bench baselines, e.g.
``SLO.json``)::

    {
      "name": "repro-cluster",
      "window_seconds": 300,
      "objectives": [
        {"name": "job-latency",   "kind": "p99_latency",
         "threshold_seconds": 60.0},
        {"name": "job-errors",    "kind": "error_rate",
         "threshold": 0.02},
        {"name": "cache-hits",    "kind": "cache_hit_rate",
         "floor": 0.0}
      ]
    }

Three objective kinds cover the numbers the ISSUE cares about:

* ``p99_latency`` — p99 submit-to-finish latency must stay at or under
  ``threshold_seconds``.
* ``error_rate`` — failed jobs / finished jobs must stay at or under
  ``threshold``.
* ``cache_hit_rate`` — cache hits / lookups must stay at or *above*
  ``floor``.

Each evaluation also reports a **burn rate**: how fast the objective is
consuming its budget, normalized so 1.0 means "exactly at the
threshold".  For ceilings that is ``value / threshold``; for the hit
floor it is ``(1 - value) / (1 - floor)`` (miss share over allowed miss
share).  A burn rate above :data:`ALERT_BURN_RATE` turns into an alert
line in ``repro top`` / ``repro report`` before the objective actually
breaches.

Measurements come from two sources: a finished loadtest report
(:func:`measurements_from_loadtest`) for the CI gate, or a window of
gateway telemetry snapshots (:func:`measurements_from_telemetry`) for
the live view — the latter estimates p99 from histogram bucket deltas
by cumulative interpolation, the standard Prometheus
``histogram_quantile`` construction.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

OBJECTIVE_KINDS = ("p99_latency", "error_rate", "cache_hit_rate")

#: burn rate at which an objective alerts before breaching
ALERT_BURN_RATE = 0.85

#: telemetry metric names the window measurements read
LATENCY_HISTOGRAM = "repro_job_latency_seconds"
COMPLETED_COUNTER = "repro_jobs_completed_total"
CACHE_HITS_COUNTER = "repro_cache_hits_total"
CACHE_MISSES_COUNTER = "repro_cache_misses_total"


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def validate_slo_spec(spec: Any) -> List[str]:
    """Problems with an SLO spec object (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(spec, dict):
        return ["spec must be a JSON object"]
    objectives = spec.get("objectives")
    if not isinstance(objectives, list) or not objectives:
        return ["spec needs a non-empty 'objectives' list"]
    seen = set()
    for i, obj in enumerate(objectives):
        where = f"objectives[{i}]"
        if not isinstance(obj, dict):
            problems.append(f"{where} must be an object")
            continue
        name = obj.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where} needs a 'name'")
        elif name in seen:
            problems.append(f"{where} duplicates objective {name!r}")
        else:
            seen.add(name)
        kind = obj.get("kind")
        if kind not in OBJECTIVE_KINDS:
            problems.append(
                f"{where} kind {kind!r} not one of {OBJECTIVE_KINDS}")
            continue
        if kind == "p99_latency":
            bound = obj.get("threshold_seconds")
            if not isinstance(bound, (int, float)) or bound <= 0:
                problems.append(
                    f"{where} needs a positive 'threshold_seconds'")
        elif kind == "error_rate":
            bound = obj.get("threshold")
            if not isinstance(bound, (int, float)) \
                    or not 0 <= bound <= 1:
                problems.append(
                    f"{where} needs a 'threshold' in [0, 1]")
        elif kind == "cache_hit_rate":
            floor = obj.get("floor")
            if not isinstance(floor, (int, float)) \
                    or not 0 <= floor <= 1:
                problems.append(f"{where} needs a 'floor' in [0, 1]")
    window = spec.get("window_seconds")
    if window is not None and (not isinstance(window, (int, float))
                               or window <= 0):
        problems.append("'window_seconds' must be a positive number")
    return problems


def load_slo_spec(path: str) -> Dict[str, Any]:
    """Load and validate a spec file; raises ValueError on problems."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    problems = validate_slo_spec(spec)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return spec


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def quantile_from_histogram(exported: Dict[str, Any], q: float
                            ) -> Optional[float]:
    """Estimate quantile ``q`` from an exported histogram delta.

    ``exported`` carries per-bucket (non-cumulative) ``counts`` with a
    final +Inf bucket; interpolate linearly inside the bucket holding
    the target rank (0 as the lower edge of the first bucket).  The
    +Inf bucket yields its lower finite bound — the honest answer "at
    least this much".  None when the histogram is empty.
    """
    buckets = list(exported.get("buckets", ()))
    counts = list(exported.get("counts", ()))
    total = int(exported.get("count", 0) or 0)
    if total <= 0 or len(counts) != len(buckets) + 1:
        return None
    rank = q * total
    cumulative = 0
    for i, n in enumerate(counts[:-1]):
        prev_cumulative = cumulative
        cumulative += n
        if cumulative >= rank and n > 0:
            lo = buckets[i - 1] if i > 0 else 0.0
            hi = buckets[i]
            frac = (rank - prev_cumulative) / n
            return lo + (hi - lo) * min(1.0, max(0.0, frac))
    return float(buckets[-1]) if buckets else None


def _counter_total(exported: Optional[Dict[str, Any]],
                   **match: str) -> float:
    """Sum an exported counter's values, optionally filtered by label."""
    total = 0.0
    if not isinstance(exported, dict):
        return 0.0
    for key, amount in exported.get("values", ()):
        labels = {k: v for k, v in key}
        if all(labels.get(k) == v for k, v in match.items()):
            total += amount
    return total


def measurements_from_loadtest(report: Dict[str, Any]
                               ) -> Dict[str, Optional[float]]:
    """SLI values from a finished ``run_loadtest`` report."""
    jobs = int(report.get("jobs", 0) or 0)
    lost = int(report.get("lost", 0) or 0)
    mismatches = int(report.get("mismatches", 0) or 0)
    service = report.get("service") or {}
    hits = service.get("repro_cache_hits_total")
    misses = service.get("repro_cache_misses_total")
    hit_rate = None
    if isinstance(hits, (int, float)) and isinstance(misses, (int, float)) \
            and hits + misses > 0:
        hit_rate = hits / (hits + misses)
    return {
        "p99_latency": (report.get("latency") or {}).get("p99"),
        "error_rate": ((lost + mismatches) / jobs) if jobs else None,
        "cache_hit_rate": hit_rate,
    }


def measurements_from_telemetry(snapshots: List[Dict[str, Any]]
                                ) -> Dict[str, Optional[float]]:
    """SLI values over a window of telemetry snapshots (oldest first).

    Counters and histograms are monotonic, so the window's activity is
    the difference between the last and first snapshot; a single
    snapshot measures everything since gateway start.
    """
    if not snapshots:
        return {"p99_latency": None, "error_rate": None,
                "cache_hit_rate": None}
    first = snapshots[0].get("metrics") or {}
    last = snapshots[-1].get("metrics") or {}
    if len(snapshots) == 1:
        first = {}

    def window(name: str, **match: str) -> float:
        return (_counter_total(last.get(name), **match)
                - _counter_total(first.get(name), **match))

    latency = last.get(LATENCY_HISTOGRAM)
    before = first.get(LATENCY_HISTOGRAM)
    if isinstance(latency, dict) and isinstance(before, dict) \
            and before.get("buckets") == latency.get("buckets"):
        latency = dict(latency, count=(int(latency.get("count", 0))
                                       - int(before.get("count", 0))),
                       counts=[a - b for a, b in zip(
                           latency.get("counts", ()),
                           before.get("counts", ()))])
    p99 = quantile_from_histogram(latency, 0.99) \
        if isinstance(latency, dict) else None

    finished = window(COMPLETED_COUNTER)
    failed = (window(COMPLETED_COUNTER, state="failed")
              + window(COMPLETED_COUNTER, state="expired"))
    error_rate = (failed / finished) if finished > 0 else None

    hits = window(CACHE_HITS_COUNTER)
    misses = window(CACHE_MISSES_COUNTER)
    hit_rate = (hits / (hits + misses)) if hits + misses > 0 else None

    return {"p99_latency": p99, "error_rate": error_rate,
            "cache_hit_rate": hit_rate}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _evaluate_one(obj: Dict[str, Any], value: Optional[float]
                  ) -> Dict[str, Any]:
    kind = obj["kind"]
    if kind == "p99_latency":
        bound = float(obj["threshold_seconds"])
        burn = None if value is None else value / bound
        ok = value is None or value <= bound
        target = f"<= {bound}s"
    elif kind == "error_rate":
        bound = float(obj["threshold"])
        if value is None:
            burn, ok = None, True
        elif bound > 0:
            burn, ok = value / bound, value <= bound
        else:
            burn, ok = (float("inf") if value > 0 else 0.0), value <= 0
        target = f"<= {bound:.4g}"
    else:  # cache_hit_rate
        floor = float(obj["floor"])
        if value is None:
            burn, ok = None, True
        else:
            allowed_miss = 1.0 - floor
            miss = 1.0 - value
            if allowed_miss > 0:
                burn = miss / allowed_miss
            else:
                burn = float("inf") if miss > 0 else 0.0
            ok = value >= floor
        target = f">= {floor:.4g}"
    return {
        "name": obj["name"],
        "kind": kind,
        "target": target,
        "value": value,
        "ok": bool(ok),
        "no_data": value is None,
        "burn_rate": (round(burn, 4)
                      if isinstance(burn, float) and burn != float("inf")
                      else burn),
        "alert": (burn is not None and burn > ALERT_BURN_RATE),
    }


def evaluate_slo(spec: Dict[str, Any],
                 measurements: Dict[str, Optional[float]],
                 source: str = "loadtest") -> Dict[str, Any]:
    """Evaluate every objective; overall ``ok`` requires all to hold.

    Objectives with no data pass (nothing ran → nothing breached) but
    are flagged ``no_data`` so a gate run against an idle cluster is
    visibly vacuous rather than silently green.
    """
    results = [_evaluate_one(obj, measurements.get(obj["kind"]))
               for obj in spec.get("objectives", ())]
    return {
        "spec": spec.get("name", "slo"),
        "source": source,
        "objectives": results,
        "violations": [r["name"] for r in results if not r["ok"]],
        "alerts": [r["name"] for r in results
                   if r["alert"] and r["ok"]],
        "ok": all(r["ok"] for r in results),
    }


def render_slo(evaluation: Dict[str, Any]) -> str:
    """Fixed-width text block for CLI output."""
    lines = [f"SLO {evaluation['spec']} "
             f"[{'OK' if evaluation['ok'] else 'VIOLATED'}] "
             f"(source: {evaluation['source']})"]
    for r in evaluation["objectives"]:
        if r["no_data"]:
            status, shown = "  --  ", "no data"
        else:
            status = "  ok  " if r["ok"] else "VIOLATE"
            if r["kind"] == "p99_latency":
                shown = f"{r['value']:.4f}s"
            else:
                shown = f"{r['value']:.4f}"
        burn = r["burn_rate"]
        burn_s = ("" if burn is None
                  else f"  burn={burn:.2f}" if isinstance(burn, float)
                  else "  burn=inf")
        alert_s = "  ALERT" if r["alert"] and r["ok"] else ""
        lines.append(f"  [{status}] {r['name']:<16} {r['kind']:<15} "
                     f"{shown:>10}  target {r['target']}"
                     f"{burn_s}{alert_s}")
    return "\n".join(lines)
