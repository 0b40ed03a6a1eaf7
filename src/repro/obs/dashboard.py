"""Self-contained HTML run dashboard (``repro report --html``).

One call, one file, zero network: :func:`render_dashboard` turns a
recorded span list (live from a :class:`~repro.obs.recorder.TraceRecorder`
or reloaded from a JSONL trace via
:func:`~repro.obs.sinks.load_spans_jsonl`) into a single HTML page with
inline CSS and server-rendered SVG — it opens from disk, attaches to a
CI artifact, and pastes into a bug report without any JavaScript, fonts
or CDN fetches.  The spans are all it needs: the skew table and the
plan panel render the spans' :class:`~repro.obs.report.RunReport` —
the same numbers ``repro report`` prints — and the data plane panel
reads the profiler's annotations on those spans.

Sections, in reading order:

* **phase timeline** — a Gantt of every MapReduce job, its map /
  shuffle / reduce phases colour-coded (the where-did-the-time-go view);
* **per-reducer load charts** — one bar chart per job from the job
  span's recorded ``reduce_task_loads`` (the paper's Figure 4, per run);
* **skew table** — the run report's Section-7 statistics per job:
  p50/p95/max load, Gini, Jain fairness, imbalance, replication factor;
* **plan panel** — the run report's predicted-vs-observed scorecard
  per algorithm and quantity (replication, shuffle, max load, ...),
  worst offender first, from the trace's reconciliation spans;
* **data plane panel** — the profiler's per-job, per-phase CPU /
  memory accounting and shared-memory transport notes (the rows of
  :func:`~repro.obs.profile.data_plane_rows`, present for a profiled
  run).

Colour and mark conventions follow a small fixed design system: three
categorical series hues (validated for colour-vision deficiency
separation), ink/gridline tokens for text and chrome, light and dark
themes selected by ``prefers-color-scheme``, bars with rounded data-ends
anchored to the baseline, and text never set in a series colour.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Sequence

from repro.obs.profile import data_plane_rows, fmt_bytes
from repro.obs.report import RunReport
from repro.obs.span import Span

__all__ = ["render_dashboard"]


# --------------------------------------------------------------------------
# design tokens (inline CSS custom properties; dark mode is its own
# selection from the same ramps, not an automatic inversion)
# --------------------------------------------------------------------------
_CSS = """
:root {
  --surface: #fcfcfb;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --ink-3: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --ink-3: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
  }
}
:root[data-theme="dark"] {
  --surface: #1a1a19;
  --ink: #ffffff;
  --ink-2: #c3c2b7;
  --ink-3: #898781;
  --gridline: #2c2c2a;
  --baseline: #383835;
  --series-1: #3987e5;
  --series-2: #d95926;
  --series-3: #199e70;
}
* { box-sizing: border-box; }
body {
  margin: 0 auto;
  padding: 24px;
  max-width: 980px;
  background: var(--surface);
  color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
.card {
  border: 1px solid var(--gridline);
  border-radius: 8px;
  padding: 12px 14px;
  margin: 10px 0;
}
.legend { color: var(--ink-2); font-size: 12px; margin: 2px 0 6px; }
.legend .swatch {
  display: inline-block;
  width: 10px; height: 10px;
  border-radius: 2px;
  margin: 0 4px 0 12px;
  vertical-align: baseline;
}
.legend .swatch:first-child { margin-left: 0; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td {
  text-align: right;
  padding: 4px 8px;
  border-bottom: 1px solid var(--gridline);
}
th { color: var(--ink-2); font-weight: 600; }
th:first-child, td:first-child {
  text-align: left;
  font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
  font-size: 12px;
}
svg text { font: 11px system-ui, sans-serif; fill: var(--ink-2); }
svg .muted { fill: var(--ink-3); }
.flag { color: var(--ink); font-weight: 600; }
"""

#: phase name -> categorical series slot (fixed assignment, never cycled).
_PHASE_SERIES = {"map": "series-1", "shuffle": "series-2", "reduce": "series-3"}

_GUTTER = 150  #: left label gutter of the timeline, px
_PLOT_W = 720  #: plot width of every chart, px


def _esc(value: Any) -> str:
    return _html.escape(str(value), quote=True)


def _fmt(value: float, digits: int = 2) -> str:
    if float(value) == int(value):
        return str(int(value))
    return f"{value:.{digits}f}"


# --------------------------------------------------------------------------
# span digestion
# --------------------------------------------------------------------------
def _job_rows(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """One row per job span (start order): name, window, phase spans,
    recorded reducer loads."""
    phases_by_job: Dict[str, List[Span]] = {}
    for span in spans:
        if span.kind == "phase":
            job = str(span.attributes.get("job", "?"))
            phases_by_job.setdefault(job, []).append(span)
    job_spans = [span for span in spans if span.kind == "job"]
    rows: List[Dict[str, Any]] = []
    for span in sorted(job_spans, key=lambda s: (s.start, s.span_id)):
        name = str(span.attributes.get("job", span.name))
        phases = [
            phase
            for phase in phases_by_job.get(name, [])
            if span.start <= phase.start and phase.end <= span.end
        ]
        rows.append(
            {
                "name": name,
                "start": span.start,
                "end": span.end,
                "phases": sorted(phases, key=lambda s: (s.start, s.span_id)),
                "loads": [
                    int(v)
                    for v in span.attributes.get("reduce_task_loads") or []
                ],
            }
        )
    return rows


# --------------------------------------------------------------------------
# SVG charts
# --------------------------------------------------------------------------
def _timeline_svg(jobs: List[Dict[str, Any]]) -> str:
    """Gantt of job phase spans; one row per job, phases colour-coded."""
    if not jobs:
        return '<p class="sub">no job spans recorded</p>'
    t0 = min(job["start"] for job in jobs)
    t1 = max(job["end"] for job in jobs)
    scale = _PLOT_W / (t1 - t0) if t1 > t0 else 0.0
    row_h, bar_h = 26, 16
    height = len(jobs) * row_h + 24
    parts = [
        f'<svg role="img" width="{_GUTTER + _PLOT_W + 10}" '
        f'height="{height}" aria-label="per-phase timeline">'
    ]
    # hairline gridlines at the quarter marks
    for quarter in range(5):
        x = _GUTTER + _PLOT_W * quarter / 4
        parts.append(
            f'<line x1="{x:.1f}" y1="0" x2="{x:.1f}" '
            f'y2="{len(jobs) * row_h}" stroke="var(--gridline)" '
            'stroke-width="1"/>'
        )
        label = f"{(t0 + (t1 - t0) * quarter / 4) * 1e3:.1f} ms"
        anchor = "end" if quarter == 4 else "middle"
        parts.append(
            f'<text x="{x:.1f}" y="{len(jobs) * row_h + 14}" '
            f'text-anchor="{anchor}" class="muted">{_esc(label)}</text>'
        )
    for index, job in enumerate(jobs):
        y = index * row_h
        mid = y + row_h / 2 + 4
        parts.append(
            f'<text x="{_GUTTER - 8}" y="{mid:.1f}" text-anchor="end">'
            f"{_esc(job['name'])}</text>"
        )
        segments = job["phases"] or [None]
        for phase in segments:
            if phase is None:
                start, end, series = job["start"], job["end"], "series-1"
            else:
                start, end = phase.start, phase.end
                series = _PHASE_SERIES.get(phase.name, "series-1")
            x = _GUTTER + (start - t0) * scale
            width = max(1.5, (end - start) * scale)
            parts.append(
                f'<rect x="{x:.2f}" y="{y + (row_h - bar_h) / 2:.1f}" '
                f'width="{width:.2f}" height="{bar_h}" rx="3" '
                f'fill="var(--{series})"/>'
            )
    parts.append(
        f'<line x1="{_GUTTER}" y1="{len(jobs) * row_h}" '
        f'x2="{_GUTTER + _PLOT_W}" y2="{len(jobs) * row_h}" '
        'stroke="var(--baseline)" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _bar_path(x: float, y: float, w: float, h: float, r: float) -> str:
    """A vertical bar with rounded *top* corners only — the data end is
    rounded, the baseline end stays flat (anchored)."""
    r = min(r, w / 2, h)
    return (
        f"M{x:.2f},{y + h:.2f} "
        f"L{x:.2f},{y + r:.2f} Q{x:.2f},{y:.2f} {x + r:.2f},{y:.2f} "
        f"L{x + w - r:.2f},{y:.2f} "
        f"Q{x + w:.2f},{y:.2f} {x + w:.2f},{y + r:.2f} "
        f"L{x + w:.2f},{y + h:.2f} Z"
    )


def _load_chart_svg(loads: List[int]) -> str:
    """Per-reducer load bars for one job: single series, baseline-
    anchored rounded bars, the max bar direct-labelled."""
    if not loads:
        return '<p class="sub">no reduce tasks</p>'
    plot_h, pad_top = 110, 18
    n = len(loads)
    gap = 2.0
    bar_w = max(2.0, min(24.0, _PLOT_W / n - gap))
    chart_w = min(_PLOT_W, n * (bar_w + gap)) + 50
    peak = max(max(loads), 1)
    max_index = loads.index(max(loads))
    parts = [
        f'<svg role="img" width="{chart_w:.0f}" '
        f'height="{plot_h + pad_top + 18}" aria-label="per-reducer load">'
    ]
    for quarter in (1, 2, 3, 4):
        value = peak * quarter / 4
        y = pad_top + plot_h - plot_h * quarter / 4
        parts.append(
            f'<line x1="40" y1="{y:.1f}" x2="{chart_w:.0f}" y2="{y:.1f}" '
            'stroke="var(--gridline)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="36" y="{y + 4:.1f}" text-anchor="end" class="muted">'
            f"{_esc(_fmt(value, 1))}</text>"
        )
    for index, load in enumerate(loads):
        h = plot_h * load / peak
        x = 40 + index * (bar_w + gap)
        y = pad_top + plot_h - h
        if load <= 0:
            continue
        if bar_w >= 6:
            parts.append(
                f'<path d="{_bar_path(x, y, bar_w, h, 4)}" '
                'fill="var(--series-1)"/>'
            )
        else:
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="var(--series-1)"/>'
            )
        if index == max_index:
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" '
                f'text-anchor="middle">{load}</text>'
            )
    parts.append(
        f'<line x1="40" y1="{pad_top + plot_h}" x2="{chart_w:.0f}" '
        f'y2="{pad_top + plot_h}" stroke="var(--baseline)" '
        'stroke-width="1"/>'
    )
    parts.append(
        f'<text x="40" y="{pad_top + plot_h + 14}" class="muted">'
        f"task 0 &#8594; {n - 1}</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------
def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _skew_table(report: RunReport) -> str:
    rows = [
        (
            job.name,
            job.balance.reducers,
            job.balance.total,
            _fmt(job.balance.p50),
            _fmt(job.balance.p95),
            job.balance.max_load,
            _fmt(job.balance.gini, 3),
            _fmt(job.balance.fairness, 3),
            _fmt(job.balance.imbalance),
            _fmt(job.replication),
        )
        for job in report.jobs
    ]
    return _table(
        (
            "job", "reducers", "records", "p50", "p95", "max",
            "Gini", "Jain", "imbalance", "replication",
        ),
        rows,
    )


def _plan_panel(report: RunReport) -> str:
    """The run report's predicted-vs-observed cost-model scorecard;
    worst offender (largest absolute relative error) first."""
    rows = [
        (
            reconciliation.algorithm,
            row.quantity,
            row.predicted,
            row.observed,
            row.error,
        )
        for reconciliation in report.reconciliations
        for row in reconciliation.rows
    ]
    if not rows:
        return ""
    rows.sort(key=lambda r: (-abs(r[4]), r[0], r[1]))
    table_rows = [
        (
            algorithm,
            quantity,
            _fmt(predicted, 3),
            _fmt(observed_value, 3),
            f"{error:+.2%}",
        )
        for algorithm, quantity, predicted, observed_value, error in rows
    ]
    return (
        "<h2>Plan &#183; predicted vs observed</h2>"
        '<div class="card">'
        + _table(
            ("algorithm", "quantity", "predicted", "observed", "rel error"),
            table_rows,
        )
        + "</div>"
    )


def _data_plane_panel(spans: Sequence[Span]) -> str:
    """The profiler's per-job, per-phase CPU / memory / serialization
    table.  Empty string when the run was not profiled."""
    rows, notes = data_plane_rows(spans)
    if not rows:
        return ""
    table_rows = [
        (job, phase, f"{task_cpu:.3f}", f"{driver_cpu:.3f}", fmt_bytes(memory))
        for job, phase, task_cpu, driver_cpu, memory in rows
    ]
    extra_html = (
        '<p class="legend">'
        + " &#183; ".join(_esc(f"{job}: {text}") for job, text in notes)
        + "</p>"
        if notes
        else ""
    )
    return (
        "<h2>Data plane &#183; CPU / memory / serialization</h2>"
        '<div class="card">'
        + _table(
            ("job", "phase", "task cpu s", "driver cpu s", "rss peak"),
            table_rows,
        )
        + extra_html
        + "</div>"
    )


# --------------------------------------------------------------------------
# page assembly
# --------------------------------------------------------------------------
def render_dashboard(spans: Sequence[Span], *, title: str = "repro run") -> str:
    """Render one self-contained HTML dashboard string.

    ``spans`` are a run's closed spans (a recorder's ``spans`` or a
    reloaded JSONL trace).  The Data plane table appears whenever the
    spans carry the profiler's annotations.
    """
    jobs = _job_rows(spans)
    report = RunReport.from_spans(spans)
    wall = (
        max(span.end for span in spans) - min(span.start for span in spans)
        if spans
        else 0.0
    )
    legend = (
        '<p class="legend">'
        '<span class="swatch" style="background:var(--series-1)"></span>map'
        '<span class="swatch" style="background:var(--series-2)"></span>'
        "shuffle"
        '<span class="swatch" style="background:var(--series-3)"></span>'
        "reduce</p>"
    )
    load_cards = "".join(
        f'<div class="card"><h2 style="margin-top:0">'
        f"Reducer load &#183; {_esc(job['name'])}</h2>"
        + _load_chart_svg(job["loads"])
        + "</div>"
        for job in jobs
    )
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">{len(jobs)} jobs &#183; {len(spans)} spans'
        f" &#183; {wall * 1e3:.2f} ms wall</p>",
        "<h2>Per-phase timeline</h2>",
        f'<div class="card">{legend}{_timeline_svg(jobs)}</div>',
        "<h2>Per-reducer load distribution</h2>",
        load_cards or '<p class="sub">no jobs recorded</p>',
        "<h2>Skew &amp; replication per job</h2>",
        f'<div class="card">{_skew_table(report)}</div>',
        _plan_panel(report),
        _data_plane_panel(spans),
        "</body></html>",
    ]
    return "".join(parts)

