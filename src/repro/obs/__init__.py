"""Span-based tracing and run observability.

The paper's evaluation is an argument about *where work goes* —
intermediate pair counts, replication, per-reducer load.  This package
makes a run inspectable at that granularity: attach a
:class:`TraceRecorder` (``execute(..., observer=recorder)`` or
``repro run --trace out.jsonl``) and every query, algorithm, MapReduce
job, phase and map/reduce task is recorded as a hierarchical span with
wall-clock duration, counter deltas, and cost-model charges.

The span stream is the one record of a run; everything else is a
function of it.

* spans & recorder — :class:`Span`, :class:`TraceRecorder`
* sinks — the one subscriber protocol (:class:`TraceSink`):
  :class:`JsonlSink` (the one trace format, which ``repro report`` reads
  back with :func:`load_spans_jsonl`) — and the profiler and the live
  hub below
* metrics — :class:`MetricsRegistry`, the fold of a span sequence
  (:func:`fold_spans`), built when read: ``recorder.metrics`` folds the
  spans closed so far and ``repro report`` a reloaded trace.  Counters
  and histograms with Prometheus-text and JSON export, recording
  per-phase wall time, tuple in/out, shuffled records, reducer- and
  key-load histograms and fault counts
* analysis — :class:`RunReport` flags skewed reducers, stragglers and
  empty-output tasks using the Section-7 load statistics
* explain — :func:`explain_query` renders the pre-run physical plan
  (planner rationale, cycles, grid shape, each condition's sweep
  windows and mask, analytic cost-model predictions) and
  :class:`PlanReconciliation` joins those predictions against the
  observed metrics after the run
* dashboard — :func:`render_dashboard` emits one self-contained HTML
  page (``repro report --html``) with phase timelines, reducer-load
  charts and the run report's skew, replication and plan tables
* profile — :class:`Profiler` (``repro run --profile``,
  ``TraceRecorder(profile=True)``): per-phase driver CPU and memory
  watermarks and in-process task CPU, measured between a span's open
  and close and annotated on the spans, where the data-plane rundown
  (:func:`data_plane_summary`) reads them
* live — :class:`TelemetryHub` (``repro run --progress`` /
  ``--serve-status``, ``TraceRecorder(live=True)``): running / finished
  tasks and progress/ETA folded from the same span stream, with a
  terminal ticker (:class:`ProgressPrinter`) and an embedded HTTP status
  endpoint (:class:`StatusServer`: ``/metrics``, ``/progress``)

Observation is strictly passive: with no observer attached nothing is
recorded and results, counters and benchmark numbers are unchanged.
"""

import importlib
from typing import Any, Dict, List

#: Each public name -> the module it lives in.  A name is imported from
#: there on first use (:func:`__getattr__`), so importing the package —
#: which the engine does for :mod:`repro.obs.recorder` — loads neither
#: the dashboard nor the live status server and its ``http.server``.
_HOMES: Dict[str, str] = {
    **dict.fromkeys(["render_dashboard"], "dashboard"),
    **dict.fromkeys(
        ["ProgressPrinter", "StatusServer", "TelemetryHub", "render_progress_line"], "live"
    ),
    **dict.fromkeys(
        ["PlanExplain", "PlanReconciliation", "ReconciliationRow", "explain_query",
         "reconciliation_from_spans"],
        "explain",
    ),
    **dict.fromkeys(
        ["Counter", "Histogram", "MetricError", "MetricsRegistry", "fold_spans"],
        "metrics",
    ),
    **dict.fromkeys(["Profiler", "data_plane_summary"], "profile"),
    **dict.fromkeys(["TraceRecorder"], "recorder"),
    **dict.fromkeys(["FaultSummary", "JobLoadSummary", "RunReport", "TaskFlag"], "report"),
    **dict.fromkeys(["JsonlSink", "TraceSink", "load_spans_jsonl"], "sinks"),
    **dict.fromkeys(["Span"], "span"),
}


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_HOMES})


__all__ = sorted(_HOMES)
