"""The ``repro report`` HTML dashboard.

One self-contained HTML file (inline CSS/SVG, zero external fetches)
aggregating everything the paper's evaluation talks about:

* Table I and Table II, with the paper's aggregate claims
  (``#par-loss`` 90 / ``#par-extra`` 12 vs 37 / 6-of-12 helped)
  checked against this run and any divergence highlighted;
* per-loop :class:`~repro.trace.LoopDecision` drilldown — verdict,
  failing test, privatization/reduction clauses, dependence-test deltas —
  grouped per (benchmark, configuration);
* parse/base cache hit rates and the full metrics registry;
* the bench trajectory from ``BENCH_history.jsonl`` (one SVG line chart
  per suite: the warm Table II pipeline and the warm Figure 20 run);
* the latest fuzz campaign stats, when a campaign has run.

:func:`collect` runs the Table II pipeline with tracing enabled and
*verifies* that the trace-side :func:`~repro.trace.count_parallel`
reproduces the table rows exactly before rendering — the dashboard never
shows numbers the trace cannot account for.
"""

from __future__ import annotations

import html
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.pipeline import CONFIGS
from repro.experiments.table1 import table1_rows
from repro.experiments.table2 import Table2Row, table2_outcomes
from repro.obs import metrics as obs_metrics
from repro.obs.slo import ALERT_BURN_RATE
from repro.obs.telemetry import TelemetryStore
from repro.perfect.suite import all_benchmarks, cache_dir
from repro.polaris.report import merge_timings
from repro.trace import LoopDecision, Tracer, count_parallel

#: the paper's Table II aggregate numbers (12-benchmark totals)
PAPER = {"conv_loss": 90, "conv_extra": 12, "ann_extra": 37,
         "ann_loss": 0, "helped": 6, "benchmarks": 12}

#: default location of the bench-gate trajectory (repo root)
HISTORY_FILE = "BENCH_history.jsonl"

#: where a fuzz campaign drops its latest stats for the dashboard
FUZZ_STATS_FILE = "fuzz_latest.json"


class CountMismatchError(RuntimeError):
    """Trace-side decision counts disagree with the table rows."""


@dataclass
class DashboardData:
    benchmarks: List[str]
    table1: List[Tuple[str, str]]
    rows: List[Table2Row]
    decisions: List[LoopDecision]
    counts: Dict[Tuple[str, str], int]
    timings: Dict[str, float] = field(default_factory=dict)
    parse_cache: Dict[str, object] = field(default_factory=dict)
    base_cache: Dict[str, object] = field(default_factory=dict)
    metrics_text: str = ""
    bench_history: List[Dict[str, object]] = field(default_factory=list)
    fuzz_stats: Optional[Dict[str, object]] = None
    figure20: Optional[List[object]] = None  # SpeedupCell list
    slo: Optional[Dict[str, object]] = None  # latest gate evaluation


def verify_counts(rows: Sequence[Table2Row],
                  decisions: Sequence[LoopDecision]) -> None:
    """Raise unless :func:`count_parallel` over the trace reproduces every
    row's ``par_loops`` (the acceptance bar for the dashboard)."""
    counts = count_parallel(decisions)
    for row in rows:
        for kind in CONFIGS:
            traced = counts.get((row.benchmark, kind), 0)
            tabled = row.configs[kind].par_loops
            if traced != tabled:
                raise CountMismatchError(
                    f"{row.benchmark}/{kind}: trace says {traced} "
                    f"parallel loops, table says {tabled}")


def read_bench_history(path: str = HISTORY_FILE) -> List[Dict[str, object]]:
    return [entry for entry in TelemetryStore.load_jsonl(path)
            if isinstance(entry, dict)]


def read_fuzz_stats(path: Optional[str] = None
                    ) -> Optional[Dict[str, object]]:
    path = path or os.path.join(cache_dir(), FUZZ_STATS_FILE)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def latest_slo(entries: List[Dict[str, object]]
               ) -> Optional[Dict[str, object]]:
    """The most recent loadtest history record's SLO evaluation (the
    ``repro loadtest --slo`` gate writes one per --gate run)."""
    for entry in reversed(entries):
        if entry.get("suite") == "loadtest" \
                and isinstance(entry.get("slo"), dict):
            return entry["slo"]
    return None


def _cache_counts(name: str) -> Dict[str, object]:
    """A cache's hits, misses and hit rate, from its lookup counter in
    the default registry (pool workers' lookups are merged into it)."""
    lookups = obs_metrics.counter(name)
    hits = int(lookups.value(outcome="memory_hit"))
    misses = int(lookups.value(outcome="miss"))
    rate = hits / (hits + misses) if hits + misses else 0.0
    return {"memory_hits": hits, "misses": misses,
            "hit_rate": round(rate, 4)}


def collect(benchmarks: Optional[List[str]] = None,
            jobs: Optional[int] = None,
            include_figure20: bool = False,
            history_path: str = HISTORY_FILE) -> DashboardData:
    """Run the evaluation (traced) and gather every dashboard input."""
    from repro.perfect import get_benchmark
    bench_objs = ([get_benchmark(b) for b in benchmarks]
                  if benchmarks else all_benchmarks())
    tracer = Tracer(label="report")
    rows, _outcomes = table2_outcomes(jobs=jobs, benchmarks=bench_objs,
                                      tracer=tracer)
    decisions = list(tracer.decisions)
    verify_counts(rows, decisions)
    timings: Dict[str, float] = {}
    for row in rows:
        merge_timings(timings, row.timings)
    figure20 = None
    if include_figure20:
        from repro.experiments.figure20 import figure20_all
        figure20 = figure20_all(benchmarks=bench_objs, jobs=jobs)
    bench_history = read_bench_history(history_path)
    return DashboardData(
        benchmarks=[b.name for b in bench_objs],
        table1=table1_rows(jobs=jobs),
        rows=rows,
        decisions=decisions,
        counts=count_parallel(decisions),
        timings=timings,
        parse_cache=_cache_counts("repro_parse_cache_total"),
        base_cache=_cache_counts("repro_base_cache_total"),
        metrics_text=obs_metrics.get_registry().to_prometheus(),
        bench_history=bench_history,
        fuzz_stats=read_fuzz_stats(),
        figure20=figure20,
        slo=latest_slo(bench_history),
    )


def write_dashboard(path: str, data: DashboardData) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_dashboard(data))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _e(value: object) -> str:
    return html.escape(str(value), quote=True)


# palette: validated categorical slots 1-3 + chart chrome, light and dark
_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --gridline: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
  --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --gridline: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --border: rgba(255,255,255,0.10);
  }
}
body { margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 1100px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
section { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0; }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th { text-align: left; color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--baseline); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--gridline); padding: 4px 10px 4px 0;
  vertical-align: top; }
td.num, th.num { text-align: right;
  font-variant-numeric: tabular-nums; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 8px 0; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 18px; min-width: 130px; }
.tile .v { font-size: 26px; font-weight: 650; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
.ok { color: var(--good); }
.warn { color: var(--critical); font-weight: 600; }
.dim { color: var(--muted); }
details { margin: 6px 0; }
summary { cursor: pointer; color: var(--text-secondary); }
code, pre { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
  font-size: 12px; }
pre { overflow-x: auto; background: var(--page); padding: 10px;
  border-radius: 6px; border: 1px solid var(--gridline); }
svg text { font: 11px system-ui, sans-serif; fill: var(--muted); }
.legend { display: flex; gap: 16px; font-size: 12px;
  color: var(--text-secondary); margin: 4px 0; }
.swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 4px; vertical-align: baseline; }
"""


def _tiles(data: DashboardData) -> str:
    totals = {kind: sum(r.configs[kind].par_loops for r in data.rows)
              for kind in CONFIGS}
    cells = [
        ("benchmarks", str(len(data.rows))),
        ("par loops (none)", str(totals["none"])),
        ("par loops (conv)", str(totals["conventional"])),
        ("par loops (annot)", str(totals["annotation"])),
        ("loop decisions", str(len(data.decisions))),
        ("analysis wall-clock",
         f"{sum(data.timings.values()):.2f}s"),
    ]
    tiles = "".join(
        f'<div class="tile"><div class="v">{_e(v)}</div>'
        f'<div class="k">{_e(k)}</div></div>' for k, v in cells)
    return f'<div class="tiles">{tiles}</div>'


def _table1_section(data: DashboardData) -> str:
    body = "".join(f"<tr><td>{_e(n)}</td><td>{_e(d)}</td></tr>"
                   for n, d in data.table1)
    return (f"<section><h2>Table I — benchmark suite</h2>"
            f"<table><tr><th>Application</th><th>Description</th></tr>"
            f"{body}</table></section>")


def _table2_section(data: DashboardData) -> str:
    head = ("<tr><th>Application</th>"
            "<th class=num>none par</th><th class=num>lines</th>"
            "<th class=num>conv par</th><th class=num>loss</th>"
            "<th class=num>extra</th><th class=num>lines</th>"
            "<th class=num>annot par</th><th class=num>loss</th>"
            "<th class=num>extra</th><th class=num>lines</th></tr>")
    body = []
    for r in data.rows:
        n, c, a = (r.configs[k] for k in CONFIGS)
        body.append(
            f"<tr><td>{_e(r.benchmark)}</td>"
            f"<td class=num>{n.par_loops}</td>"
            f"<td class=num>{r.lines['none']}</td>"
            f"<td class=num>{c.par_loops}</td>"
            f"<td class=num>{c.par_loss}</td>"
            f"<td class=num>{c.par_extra}</td>"
            f"<td class=num>{r.lines['conventional']}</td>"
            f"<td class=num>{a.par_loops}</td>"
            f"<td class=num>{a.par_loss}</td>"
            f"<td class=num>{a.par_extra}</td>"
            f"<td class=num>{r.lines['annotation']}</td></tr>")
    totals = {kind: {
        "par": sum(r.configs[kind].par_loops for r in data.rows),
        "loss": sum(r.configs[kind].par_loss for r in data.rows),
        "extra": sum(r.configs[kind].par_extra for r in data.rows),
    } for kind in CONFIGS}
    body.append(
        f"<tr><td><b>TOTAL</b></td>"
        f"<td class=num><b>{totals['none']['par']}</b></td><td></td>"
        f"<td class=num><b>{totals['conventional']['par']}</b></td>"
        f"<td class=num><b>{totals['conventional']['loss']}</b></td>"
        f"<td class=num><b>{totals['conventional']['extra']}</b></td>"
        f"<td></td>"
        f"<td class=num><b>{totals['annotation']['par']}</b></td>"
        f"<td class=num><b>{totals['annotation']['loss']}</b></td>"
        f"<td class=num><b>{totals['annotation']['extra']}</b></td>"
        f"<td></td></tr>")
    return (f"<section><h2>Table II — parallelized loops per "
            f"configuration</h2><table>{head}{''.join(body)}</table>"
            f"{_paper_divergence(data)}</section>")


def _paper_divergence(data: DashboardData) -> str:
    """The paper's aggregate claims, checked against this run.  Status is
    icon + label, never color alone."""
    if len(data.rows) != PAPER["benchmarks"]:
        return (f'<p class="dim">Subset run ({len(data.rows)} of '
                f'{PAPER["benchmarks"]} benchmarks) — paper aggregate '
                f'claims not evaluated.</p>')
    conv_loss = sum(r.configs["conventional"].par_loss for r in data.rows)
    conv_extra = sum(r.configs["conventional"].par_extra for r in data.rows)
    ann_loss = sum(r.configs["annotation"].par_loss for r in data.rows)
    ann_extra = sum(r.configs["annotation"].par_extra for r in data.rows)
    helped = sum(1 for r in data.rows
                 if r.configs["annotation"].par_extra > 0)
    claims = [
        ("annotation never loses loops (#par-loss 0)",
         f"{PAPER['ann_loss']}", str(ann_loss), ann_loss == 0),
        ("annotation finds more extra loops than conventional",
         f"{PAPER['ann_extra']} vs {PAPER['conv_extra']}",
         f"{ann_extra} vs {conv_extra}", ann_extra > conv_extra),
        ("conventional inlining loses loops (#par-loss > 0)",
         str(PAPER["conv_loss"]), str(conv_loss), conv_loss > 0),
        ("annotation helps several benchmarks",
         f"{PAPER['helped']} of {PAPER['benchmarks']}",
         f"{helped} of {len(data.rows)}", 4 <= helped < 12),
    ]
    rows = []
    for claim, paper, ours, holds in claims:
        status = ('<span class="ok">&#10003; holds</span>' if holds else
                  '<span class="warn">&#9888; diverges</span>')
        rows.append(f"<tr><td>{_e(claim)}</td><td>{_e(paper)}</td>"
                    f"<td>{_e(ours)}</td><td>{status}</td></tr>")
    return (f"<h2>Paper divergence</h2><table><tr><th>Claim</th>"
            f"<th>Paper</th><th>This run</th><th>Status</th></tr>"
            f"{''.join(rows)}</table>")


def _decision_rows(decisions: List[LoopDecision]) -> str:
    rows = []
    for d in decisions:
        verdict = ("PARALLEL" if d.parallelized else
                   f"serial: {d.reason}"
                   + (f" ({d.detail})" if d.detail else ""))
        clauses = []
        if d.private:
            clauses.append("private(" + ", ".join(d.private) + ")")
        for r in d.reductions:
            clauses.append(f"reduction({r[0] if r else '?'}: "
                           + ", ".join(str(x) for x in r[1:]) + ")"
                           if isinstance(r, (tuple, list)) else str(r))
        tests = " ".join(f"{k}={v}" for k, v in sorted(d.dep_tests.items()))
        reach = "" if d.reachable else " <span class=dim>[dead code]</span>"
        rows.append(
            f"<tr><td>{_e(d.unit)}</td><td>DO {_e(d.var)}</td>"
            f"<td>{_e(d.origin or '-')}</td>"
            f"<td>{_e(verdict)}{reach}</td>"
            f"<td>{_e(d.profitability)}</td>"
            f"<td>{_e(' '.join(clauses) or '-')}</td>"
            f"<td><code>{_e(tests or '-')}</code></td></tr>")
    return "".join(rows)


def _drilldown_section(data: DashboardData) -> str:
    grouped: Dict[Tuple[str, str], List[LoopDecision]] = {}
    for d in data.decisions:
        grouped.setdefault((d.benchmark, d.config), []).append(d)
    parts = [
        "<section><h2>Per-loop decision drilldown</h2>",
        '<p class="sub">Every loop the parallelizer analyzed, with the '
        "verdict, the failing reason, privatization/reduction clauses, "
        "and which dependence tests fired.</p>",
    ]
    for name in data.benchmarks:
        for kind in CONFIGS:
            decisions = grouped.get((name, kind), [])
            npar = data.counts.get((name, kind), 0)
            parts.append(
                f"<details><summary><b>{_e(name)}</b> / {_e(kind)} "
                f"&mdash; {npar} parallel, "
                f"{len(decisions)} loops analyzed</summary>"
                f"<table><tr><th>Unit</th><th>Loop</th><th>Origin</th>"
                f"<th>Verdict</th><th>Profitability</th><th>Clauses</th>"
                f"<th>Dep tests</th></tr>"
                f"{_decision_rows(decisions)}</table></details>")
    parts.append("</section>")
    return "".join(parts)


def _cache_section(data: DashboardData) -> str:
    def row(label: str, stats: Dict[str, object]) -> str:
        return (f"<tr><td>{_e(label)}</td>"
                f"<td class=num>{stats.get('memory_hits', 0)}</td>"
                f"<td class=num>{stats.get('misses', 0)}</td>"
                f"<td class=num>{float(stats.get('hit_rate', 0)):.0%}"
                f"</td></tr>")
    timing_rows = "".join(
        f"<tr><td>{_e(p)}</td><td class=num>{s:.3f}</td></tr>"
        for p, s in sorted(data.timings.items(), key=lambda kv: -kv[1]))
    return (
        f"<section><h2>Caches &amp; phase timings</h2>"
        f"<table><tr><th>Cache</th><th class=num>mem hits</th>"
        f"<th class=num>misses</th><th class=num>hit rate</th></tr>"
        f"{row('parse cache', data.parse_cache)}"
        f"{row('stamped-base cache', data.base_cache)}</table>"
        f"<table><tr><th>Phase</th><th class=num>seconds</th></tr>"
        f"{timing_rows}</table></section>")


def _history_value(entry: dict):
    """The plotted metric of one history record: wall-clock for bench
    suites, p99 latency for loadtest records (whose legacy rows aliased
    the latency into ``total_seconds``)."""
    if entry.get("suite") == "loadtest" and \
            isinstance(entry.get("p99_seconds"), (int, float)):
        return float(entry["p99_seconds"])
    value = entry.get("total_seconds")
    return float(value) if isinstance(value, (int, float)) else None


def _history_section(data: DashboardData) -> str:
    entries = [e for e in data.bench_history
               if _history_value(e) is not None]
    if not entries:
        return ("<section><h2>Bench trajectory</h2>"
                '<p class="dim">No entries in BENCH_history.jsonl yet — '
                "run scripts/bench_gate.py to record one.</p></section>")
    charts = []
    labels = {"table2": "Warm Table II pipeline",
              "figure20": "Warm Figure 20 run (tuning included)",
              "loadtest": "Service loadtest (p99 latency)"}
    for suite in ("table2", "figure20", "loadtest"):
        suite_entries = [e for e in entries
                         if e.get("suite", "table2") == suite]
        if suite_entries:
            charts.append(_history_chart(suite, labels[suite],
                                         suite_entries))
    return ("<section><h2>Bench trajectory</h2>" + "".join(charts)
            + "</section>")


def _history_chart(suite: str, label: str, entries: list) -> str:
    values = [_history_value(e) for e in entries]
    w, h, pad = 640, 160, 30
    vmax = max(values) * 1.15 or 1.0
    n = len(values)
    def x(i: int) -> float:
        return pad + (w - 2 * pad) * (i / max(n - 1, 1))
    def y(v: float) -> float:
        return h - pad - (h - 2 * pad) * (v / vmax)
    points = " ".join(f"{x(i):.1f},{y(v):.1f}"
                      for i, v in enumerate(values))
    dots = []
    for i, (entry, v) in enumerate(zip(entries, values)):
        passed = entry.get("passed")
        tooltip = (f"run {i + 1}: {v:.3f}s"
                   + (f" ({'pass' if passed else 'FAIL'})"
                      if isinstance(passed, bool) else ""))
        dots.append(
            f'<circle cx="{x(i):.1f}" cy="{y(v):.1f}" r="4" '
            f'fill="var(--series-1)" stroke="var(--surface-1)" '
            f'stroke-width="2"><title>{_e(tooltip)}</title></circle>')
    grid = "".join(
        f'<line x1="{pad}" y1="{y(vmax * f):.1f}" x2="{w - pad}" '
        f'y2="{y(vmax * f):.1f}" stroke="var(--gridline)"/>'
        f'<text x="{pad - 4}" y="{y(vmax * f) + 4:.1f}" '
        f'text-anchor="end">{vmax * f:.2f}</text>'
        for f in (0.25, 0.5, 0.75, 1.0))
    line = (f'<polyline points="{points}" fill="none" '
            f'stroke="var(--series-1)" stroke-width="2"/>'
            if n > 1 else "")
    axis = ("p99 job latency, seconds" if suite == "loadtest"
            else "wall-clock (median of each bench-gate run, seconds)")
    return (
        f'<p class="sub">{_e(label)} — {axis} across {n} recorded '
        f"run{'s' if n != 1 else ''}.</p>"
        f'<svg viewBox="0 0 {w} {h}" role="img" '
        f'aria-label="{_e(suite)} bench trajectory line chart">'
        f'{grid}<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" '
        f'y2="{h - pad}" stroke="var(--baseline)"/>'
        f"{line}{''.join(dots)}</svg>")


def _fuzz_section(data: DashboardData) -> str:
    stats = data.fuzz_stats
    if not stats:
        return ("<section><h2>Latest fuzz campaign</h2>"
                '<p class="dim">No campaign recorded yet — run '
                "<code>repro fuzz</code>.</p></section>")
    rows = []
    for key in ("programs", "configs_run", "mismatches",
                "failing_programs", "shrink_steps", "source_lines",
                "elapsed_seconds", "seed"):
        if key in stats:
            rows.append(f"<tr><td>{_e(key)}</td>"
                        f"<td class=num>{_e(stats[key])}</td></tr>")
    mism = stats.get("mismatches", 0)
    verdict = ('<span class="ok">&#10003; clean</span>' if not mism else
               f'<span class="warn">&#9888; {mism} mismatches</span>')
    return (f"<section><h2>Latest fuzz campaign {verdict}</h2>"
            f"<table><tr><th>Stat</th><th class=num>Value</th></tr>"
            f"{''.join(rows)}</table></section>")


def _figure20_section(data: DashboardData) -> str:
    if not data.figure20:
        return ""
    by_machine: Dict[str, List[object]] = {}
    for c in data.figure20:
        by_machine.setdefault(c.machine, []).append(c)
    colors = {"none": "var(--series-1)",
              "conventional": "var(--series-2)",
              "annotation": "var(--series-3)"}
    legend = "".join(
        f'<span><span class="swatch" '
        f'style="background:{colors[k]}"></span>{_e(k)}</span>'
        for k in CONFIGS)
    parts = ["<section><h2>Figure 20 — tuned speedups</h2>",
             f'<div class="legend">{legend}</div>']
    for machine, cells in by_machine.items():
        benches = sorted({c.benchmark for c in cells})
        vmax = max(c.speedup for c in cells) * 1.1 or 1.0
        bar_w, gap, group_gap, pad = 14, 2, 16, 30
        w = pad * 2 + len(benches) * (3 * (bar_w + gap) + group_gap)
        h = 180
        svg = []
        for bi, bench in enumerate(benches):
            gx = pad + bi * (3 * (bar_w + gap) + group_gap)
            for ci, kind in enumerate(CONFIGS):
                cell = next((c for c in cells if c.benchmark == bench
                             and c.config == kind), None)
                if cell is None:
                    continue
                bh = (h - 2 * pad) * cell.speedup / vmax
                bx = gx + ci * (bar_w + gap)
                svg.append(
                    f'<rect x="{bx:.1f}" y="{h - pad - bh:.1f}" '
                    f'width="{bar_w}" height="{bh:.1f}" rx="2" '
                    f'fill="{colors[kind]}">'
                    f"<title>{_e(bench)} / {_e(kind)} "
                    f"({_e(cell.machine)}): "
                    f"{cell.speedup:.2f}x</title></rect>")
            svg.append(f'<text x="{gx + 1.5 * (bar_w + gap):.1f}" '
                       f'y="{h - pad + 14}" text-anchor="middle">'
                       f"{_e(bench)}</text>")
        parts.append(
            f"<h2>{_e(machine)}</h2>"
            f'<svg viewBox="0 0 {w} {h}" role="img" '
            f'aria-label="speedup bars on {_e(machine)}">'
            f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" '
            f'y2="{h - pad}" stroke="var(--baseline)"/>'
            f"{''.join(svg)}</svg>")
    parts.append("</section>")
    return "".join(parts)


def _slo_section(data: DashboardData) -> str:
    evaluation = data.slo
    if not isinstance(evaluation, dict):
        return ("<section><h2>Service SLOs</h2>"
                '<p class="dim">No SLO gate recorded yet — run '
                "<code>repro loadtest --gate --slo SLO.json</code>."
                "</p></section>")
    overall = ('<span class="ok">&#10003; OK</span>'
               if evaluation.get("ok") else
               '<span class="warn">&#9888; VIOLATED</span>')
    rows = []
    for r in evaluation.get("objectives", ()):
        if not isinstance(r, dict):
            continue
        if r.get("no_data"):
            status, shown = '<span class="dim">no data</span>', "-"
        elif r.get("ok"):
            status = '<span class="ok">&#10003; ok</span>'
            shown = r.get("value")
        else:
            status = '<span class="warn">&#9888; violated</span>'
            shown = r.get("value")
        burn = r.get("burn_rate")
        alert = (' <span class="warn">ALERT</span>'
                 if r.get("alert") and r.get("ok") else "")
        rows.append(
            f"<tr><td>{_e(r.get('name', '?'))}</td>"
            f"<td>{_e(r.get('kind', '?'))}</td>"
            f"<td class=num>{_e(shown)}</td>"
            f"<td>{_e(r.get('target', ''))}</td>"
            f"<td class=num>{_e(burn if burn is not None else '-')}"
            f"{alert}</td><td>{status}</td></tr>")
    return (f"<section><h2>Service SLOs {overall}</h2>"
            f'<p class="sub">Latest <code>repro loadtest --slo</code> '
            f"gate evaluation (spec "
            f"<code>{_e(evaluation.get('spec', 'slo'))}</code>, source "
            f"{_e(evaluation.get('source', '?'))}). Burn rate 1.0 = at "
            f"the threshold; alerts fire above {ALERT_BURN_RATE}.</p>"
            f"<table><tr><th>Objective</th><th>Kind</th>"
            f"<th class=num>Value</th><th>Target</th>"
            f"<th class=num>Burn</th><th>Status</th></tr>"
            f"{''.join(rows)}</table></section>")


def _metrics_section(data: DashboardData) -> str:
    if not data.metrics_text.strip():
        return ""
    return (f"<section><h2>Metrics registry</h2>"
            f"<details><summary>Prometheus exposition "
            f"({len(data.metrics_text.splitlines())} lines)</summary>"
            f"<pre>{_e(data.metrics_text)}</pre></details></section>")


def render_dashboard(data: DashboardData) -> str:
    return (
        "<!doctype html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">'
        "<title>repro report</title>"
        f"<style>{_CSS}</style></head><body><main>"
        "<h1>repro report</h1>"
        '<p class="sub">Interprocedural parallelization evaluation '
        "&mdash; Table I/II, per-loop decisions, caches, bench "
        "trajectory, and fuzzing, in one self-contained page.</p>"
        f"{_tiles(data)}"
        f"{_table1_section(data)}"
        f"{_table2_section(data)}"
        f"{_figure20_section(data)}"
        f"{_drilldown_section(data)}"
        f"{_cache_section(data)}"
        f"{_history_section(data)}"
        f"{_slo_section(data)}"
        f"{_fuzz_section(data)}"
        f"{_metrics_section(data)}"
        "</main></body></html>\n")
