#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py A/ B/

``A/`` and ``B/`` hold result files of ``bench/run.py`` (the
``result.json`` written to ``--out``, or its last output line saved to a
file), found recursively.  For every (workload, end-to-end metric) the
table shows each side's median and quartiles and a verdict of B against
A under the metric's bound in ``BENCHMARK.json``:

``same``        B's median is within the bound of A's;
``better``      B's median is better than A's by more than the bound;
``worse``       B's median is worse than A's by more than the bound;
``unresolved``  the medians differ by more than the bound, but A's
                run-to-run spread (the distance between its quartiles) is
                wider than the bound and the two sides' runs overlap.

Used for the same-code agreement check of the benchmark itself and, by
later changes, for parent against change (runs of the two alternating).
The exit code is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median, quantiles
from typing import Any, Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def read_result(path: str):
    """The result object in ``path`` — the whole file, or its last line
    (a saved standard output) — or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().strip()
    except (OSError, UnicodeDecodeError):
        return None
    for candidate in (text, text.splitlines()[-1] if text else ""):
        try:
            result = json.loads(candidate)
        except ValueError:
            continue
        if isinstance(result, dict) and "metrics" in result:
            return result
    return None


def load_results(directory: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): values}`` over every result under
    ``directory``.  The workload is read from the result's header, or
    from the file name (``<workload>-...``) for a bare result line."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for root, _dirs, files in os.walk(directory):
        for name in sorted(files):
            result = read_result(os.path.join(root, name))
            if result is None:
                continue
            workload = result.get("header", {}).get("workload") \
                or name.split("-", 1)[0]
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(
                    entry["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """B against A (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = median(b)
    change = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if abs(change) <= bound:
        return "same"
    spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    overlap = max(min(a), min(b)) <= min(max(a), max(b))
    if spread > bound and overlap:
        return "unresolved"
    return "worse" if change > 0 else "better"


def compare(a_dir: str, b_dir: str, spec: Dict[str, Any]) -> List[List[str]]:
    a_values, b_values = load_results(a_dir), load_results(b_dir)
    declared = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for key in sorted(set(a_values) & set(b_values)):
        workload, metric = key
        if metric not in declared:
            continue
        a, b = a_values[key], b_values[key]
        a_q1, a_med, a_q3 = quartiles(a)
        b_q1, b_med, b_q3 = quartiles(b)
        rows.append([
            workload, metric, declared[metric]["unit"],
            f"{a_med:.5g} [{a_q1:.5g}, {a_q3:.5g}] n={len(a)}",
            f"{b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}] n={len(b)}",
            f"{(b_med - a_med) / a_med:+.1%}" if a_med else "n/a",
            f"{declared[metric]['bound']:.0%}",
            verdict(a, b, declared[metric]["better"],
                    declared[metric]["bound"])])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A/")
    parser.add_argument("b", metavar="B/")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(BENCH_DIR), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(args.a, args.b, spec)
    if not rows:
        print("no (workload, metric) pair has results on both sides")
        return 2
    header = ["workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "B vs A", "bound", "verdict"]
    widths = [max(len(row[i]) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
