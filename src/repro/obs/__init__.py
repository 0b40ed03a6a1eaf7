"""Span-based tracing and run observability.

The paper's evaluation is an argument about *where work goes* —
intermediate pair counts, replication, per-reducer load.  This package
makes a run inspectable at that granularity: attach a
:class:`TraceRecorder` (``execute(..., observer=recorder)`` or
``repro run --trace out.json``) and every query, algorithm, MapReduce
job, phase and map/reduce task is recorded as a hierarchical span with
wall-clock duration, counter deltas, and cost-model charges.

The span stream is the one record of a run; everything else is a
function of it.

* spans & recorder — :class:`Span`, :class:`TraceRecorder`
* sinks — the one subscriber protocol (:class:`TraceSink`):
  :class:`InMemorySink` (tests), :class:`JsonlSink` (event log),
  :class:`ChromeTraceSink` (load the file in Perfetto or
  ``chrome://tracing``) — and the metrics fold, the profiler and the
  live hub below
* metrics — :class:`MetricsRegistry` on ``recorder.metrics``, a fold
  over the closed spans (:func:`fold_spans` rebuilds it from a trace):
  counters/gauges/histograms with Prometheus-text and JSON export,
  recording per-phase wall time, tuple in/out, shuffled records,
  replication factor, grid utilisation and key-skew histograms
* analysis — :class:`RunReport` flags skewed reducers, stragglers and
  empty-output tasks using the Section-7 load statistics
* explain — :func:`explain_query` renders the pre-run physical plan
  (planner rationale, cycles, grid shape, each condition's sweep
  windows and mask, analytic cost-model predictions) and
  :class:`PlanReconciliation` joins those predictions against the
  observed metrics after the run
* dashboard — :func:`render_dashboard` emits one self-contained HTML
  page (``repro report --html``) with phase timelines, reducer-load
  charts and the replication/skew tables
* profile — :class:`Profiler` (``repro run --profile`` /
  ``$REPRO_PROFILE``): per-phase driver CPU and memory watermarks and
  in-process task CPU, measured between a span's open and close,
  annotated on the spans and folded into the ``profile`` metric group
* live — :class:`TelemetryHub` (``repro run --live`` / ``--progress`` /
  ``--serve-status`` / ``$REPRO_LIVE``): running / finished tasks and
  progress/ETA folded from the same span stream, with a terminal ticker
  (:class:`ProgressPrinter`) and an embedded HTTP status endpoint
  (:class:`StatusServer`: ``/metrics``, ``/progress``, ``/``)

Observation is strictly passive: with no observer attached nothing is
recorded and results, counters and benchmark numbers are unchanged.
"""

from repro.obs.dashboard import dashboard_from_recorder, render_dashboard
from repro.obs.live import (
    ProgressPrinter,
    StatusServer,
    TelemetryHub,
    render_progress_line,
    resolve_live,
)
from repro.obs.explain import (
    PlanExplain,
    PlanReconciliation,
    ReconciliationRow,
    explain_query,
    reconciliation_from_spans,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    fold_spans,
)
from repro.obs.profile import Profiler, data_plane_summary, resolve_profile
from repro.obs.recorder import TraceRecorder
from repro.obs.report import FaultSummary, JobLoadSummary, RunReport, TaskFlag
from repro.obs.sinks import (
    ChromeTraceSink,
    InMemorySink,
    JsonlSink,
    TraceSink,
    load_spans_jsonl,
    load_spans_jsonl_tolerant,
    open_sink,
)
from repro.obs.span import Span

__all__ = [
    "Span",
    "TraceRecorder",
    "TraceSink",
    "InMemorySink",
    "JsonlSink",
    "ChromeTraceSink",
    "open_sink",
    "load_spans_jsonl",
    "load_spans_jsonl_tolerant",
    "RunReport",
    "FaultSummary",
    "JobLoadSummary",
    "TaskFlag",
    "MetricsRegistry",
    "fold_spans",
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "render_dashboard",
    "dashboard_from_recorder",
    "PlanExplain",
    "PlanReconciliation",
    "ReconciliationRow",
    "explain_query",
    "reconciliation_from_spans",
    "Profiler",
    "resolve_profile",
    "data_plane_summary",
    "TelemetryHub",
    "resolve_live",
    "StatusServer",
    "ProgressPrinter",
    "render_progress_line",
]
