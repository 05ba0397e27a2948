"""Deep profiling: phase timings, dependence-test family stats, and an
optional cProfile top-N of the analysis hot path.

``repro <cmd> --profile`` used to dump a flat timings dict; it now
renders (via :func:`render_profile_report`):

* per-phase wall-clock in the pipeline's canonical order;
* a dependence-test family table — how many times each test in the
  ZIV/GCD/Banerjee family *ran* (attempts) vs *disproved* a
  dependence (kills), plus memo-table hits — the numbers that explain
  where analysis time goes and which test earns its keep;
* with ``--profile-top N``, a cProfile table of the N most expensive
  functions under the profiled call (:func:`profile_call`).
"""

from __future__ import annotations

import io
from typing import Callable, Dict, Optional, Tuple

# NOTE: repro.experiments.reporting is imported inside the render
# functions — the driver imports this module, and experiments imports
# the driver's package, so a module-level import here would be a cycle.

#: (display name, attempts field, kills field) per dependence-test family
FAMILIES = (
    ("ZIV", "ziv_attempts", "ziv_independent"),
    ("GCD", "gcd_attempts", "gcd_independent"),
    ("Banerjee", "banerjee_attempts", "banerjee_independent"),
)


def accumulate_test_stats(into: Dict[str, int], stats) -> Dict[str, int]:
    """Fold one :class:`~repro.analysis.dependence.TestStats` (one unit's
    tester) into an accumulated dict (in place; returned)."""
    for field in ("ziv_attempts", "gcd_attempts", "banerjee_attempts",
                  "ziv_independent", "gcd_independent",
                  "banerjee_independent", "assumed_dependent",
                  "cache_hits"):
        into[field] = into.get(field, 0) + getattr(stats, field, 0)
    return into


def merge_test_stats(into: Dict[str, int],
                     add: Dict[str, int]) -> Dict[str, int]:
    """Accumulate already-dict-shaped test stats (in place; returned)."""
    for field, value in add.items():
        into[field] = into.get(field, 0) + value
    return into


def render_test_stats(test_stats: Dict[str, int]) -> str:
    """The dependence-test family table."""
    from repro.experiments.reporting import text_table
    rows = []
    for name, attempts_f, kills_f in FAMILIES:
        attempts = test_stats.get(attempts_f, 0)
        kills = test_stats.get(kills_f, 0)
        rate = f"{kills / attempts:.1%}" if attempts else "-"
        rows.append([name, attempts, kills, rate])
    assumed = test_stats.get("assumed_dependent", 0)
    hits = test_stats.get("cache_hits", 0)
    unique = (sum(test_stats.get(k, 0) for _, _, k in FAMILIES) + assumed)
    rows.append(["(assumed dep)", "-", assumed, "-"])
    table = text_table(["test", "attempts", "kills", "kill rate"], rows,
                       title="dependence-test family stats")
    footer = (f"unique queries: {unique}   memo hits: {hits}   "
              f"hit rate: "
              f"{hits / (hits + unique):.1%}" if hits + unique else
              f"unique queries: {unique}   memo hits: {hits}")
    return table + "\n" + footer


def render_profile_report(timings: Dict[str, float],
                          test_stats: Optional[Dict[str, int]] = None,
                          cprofile_text: str = "") -> str:
    """The full ``--profile`` report."""
    from repro.experiments.reporting import render_profile
    parts = [render_profile(timings)]
    if test_stats:
        parts.append(render_test_stats(test_stats))
    if cprofile_text:
        parts.append(cprofile_text)
    return "\n\n".join(parts)


def profile_call(fn: Callable, *args,
                 top: int = 20, **kwargs) -> Tuple[object, str]:
    """Run ``fn(*args, **kwargs)`` under cProfile; returns
    ``(result, top-N text)`` sorted by cumulative time."""
    # imported here, their only user: the Polaris driver imports this
    # module, and a run without ``--profile-top`` needs no profiler
    import cProfile
    import pstats
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    text = buf.getvalue()
    # drop the chatty preamble lines before the header row
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.lstrip().startswith("ncalls"):
            lines = lines[i:]
            break
    return result, (f"cProfile top {top} (cumulative)\n"
                    + "\n".join(line.rstrip() for line in lines if
                                line.strip()))
