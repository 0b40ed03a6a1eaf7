"""The data-plane profiler: CPU and memory accounting from span events.

Spans time *phases*; nothing in them says what a phase cost the
processor or the heap.  When a run is profiled (``repro run --profile``
/ ``$REPRO_PROFILE``), a :class:`Profiler` is the first sink of the
:class:`~repro.obs.recorder.TraceRecorder` and measures what a span sink
can measure by itself, on the thread that opens and closes the span:

* **CPU** — ``time.thread_time()`` between a span's open and close:
  driver CPU per phase, and task CPU for every task body that ran in
  this process (the ``serial`` and ``threads`` executors, and every
  columnar map task).  A task whose body ran in a pool worker says so
  on its span (``pooled=True``) and is not charged — the opening thread
  only waited for it.
* **Memory** — a per-phase watermark: process peak RSS
  (``resource.getrusage``).

The profiler starts no thread, sends nothing to a worker and writes no
metric: it annotates the spans it watches (``profile_*`` attributes), so
the facts reach the JSONL trace, and the fold in
:mod:`repro.obs.metrics` turns them into the ``profile`` metric group —
machine- and executor-dependent by nature, so excluded from the parity
fingerprint exactly like ``wall``.  Stack profiles are a different
tool's job: ``python -m cProfile`` or ``py-spy`` around ``repro run``.
Profiling is strictly passive: with it off nothing in this module runs,
and with it on the run's deterministic outputs and ``run``-group metrics
are bit-identical (pinned by the profiler passivity tests).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink
from repro.obs.span import Span

__all__ = [
    "PROFILE_ENV",
    "resolve_profile",
    "Profiler",
    "data_plane_rows",
    "data_plane_summary",
]

#: Environment variable enabling profiling (``repro run --profile`` on
#: the CLI).  Empty / ``0`` / ``false`` / ``no`` / ``off`` disable; any
#: other value enables.
PROFILE_ENV = "REPRO_PROFILE"

_FALSEY = ("", "0", "false", "no", "off")


def resolve_profile(explicit: Optional[bool] = None) -> bool:
    """Whether to profile: ``explicit`` when not ``None``, otherwise
    what ``$REPRO_PROFILE`` says."""
    if explicit is not None:
        return bool(explicit)
    return os.environ.get(PROFILE_ENV, "").strip().lower() not in _FALSEY


def _rss_peak_bytes() -> int:
    """Process peak RSS in bytes (0 where ``resource`` is unavailable)."""
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


class Profiler(TraceSink):
    """Annotates the phase and in-process task spans of one profiled run.

    :class:`~repro.obs.recorder.TraceRecorder` constructs one
    (``TraceRecorder(profile=True)``) and subscribes it ahead of every
    other sink, so each span passes through :meth:`opened` and
    :meth:`emit` — on the thread that opens and closes it — before the
    metrics fold or a trace file sees it.
    """

    def __init__(self) -> None:
        #: span_id -> thread_time at open, for open phase and task spans.
        self._cpu_started: Dict[int, float] = {}

    def opened(self, span: Span) -> None:
        if span.kind == "phase" or (
            span.kind == "task" and not span.attributes.get("pooled")
        ):
            self._cpu_started[span.span_id] = time.thread_time()

    def emit(self, span: Span) -> None:
        # Only spans :meth:`opened` took a baseline for (the runner may
        # have closed a task as a failed or speculative ``attempt``).
        cpu0 = self._cpu_started.pop(span.span_id, None)
        if cpu0 is None:
            return
        cpu = max(0.0, time.thread_time() - cpu0)
        if span.kind == "phase":
            span.annotate(
                profile_cpu_driver_seconds=cpu,
                profile_mem_rss_peak_bytes=_rss_peak_bytes(),
            )
        else:
            span.annotate(profile_cpu_seconds=cpu)


# ----------------------------------------------------------------------
# The data-plane rundown: one aggregation, rendered as text here and as
# the dashboard's Data plane panel.
# ----------------------------------------------------------------------

_PHASE_ORDER = {"map": 0, "shuffle": 1, "reduce": 2}


def fmt_bytes(n: float) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(value)}{unit}"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def data_plane_rows(
    spans: Sequence[Span], registry: MetricsRegistry
) -> Tuple[List[Tuple[Any, ...]], List[Tuple[str, str]]]:
    """The per-(job, phase) rows of the ``profile`` metric group and the
    per-job notes under them.

    ``registry`` is the fold of ``spans`` (a live recorder's, or
    :func:`~repro.obs.metrics.fold_spans` of a reloaded trace).  A row
    is ``(job, phase, task cpu s, driver cpu s, peak RSS bytes)``, in
    job then phase order; a note is ``(job, text)``.  Both are empty for
    a run that was not profiled.
    """
    cells: Dict[Tuple[str, ...], Dict[str, float]] = {}
    for family, column in (
        ("cpu_seconds_total", None),  # split by its ``where`` label
        ("mem_rss_peak_bytes", "rss"),
        ("shm_bytes_total", "shm"),
    ):
        metric = registry.get(f"repro_profile_{family}")
        for labels, value in metric.samples() if metric is not None else ():
            cell = cells.setdefault(labels[:2], {})
            key = column or labels[2]
            cell[key] = cell.get(key, 0) + value
    rows = [
        (
            job, phase, cell.get("task", 0.0), cell.get("driver", 0.0),
            cell.get("rss", 0),
        )
        for (job, phase), cell in sorted(
            cells.items(),
            key=lambda item: (
                item[0][0], _PHASE_ORDER.get(item[0][1], 9), item[0][1]
            ),
        )
    ]
    # The shuffle phase *is* the key sort: its span has the seconds and
    # the number of distinct keys sorted.
    sorts: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        if span.kind == "phase" and "keys" in span.attributes:
            job = str(span.attributes.get("job", span.name))
            seconds, keys = sorts.get(job, (0.0, 0))
            sorts[job] = (
                seconds + span.duration, keys + span.attributes["keys"]
            )
    notes: List[Tuple[str, str]] = []
    for job in sorted({row[0] for row in rows}):
        if job in sorts:
            notes.append(
                (job, "shuffle sort: %.3fs over %d keys" % sorts[job])
            )
        shm = sum(
            cell.get("shm", 0) for key, cell in cells.items() if key[0] == job
        )
        if shm:
            notes.append(
                (
                    job,
                    f"shm transport: {fmt_bytes(shm)} via shared memory "
                    "(columnar plane)",
                )
            )
    return rows, notes


def data_plane_summary(
    spans: Sequence[Span], registry: MetricsRegistry
) -> str:
    """The text rundown of :func:`data_plane_rows` — what ``repro run
    --profile`` prints from the live recorder and ``repro report
    --profile`` from a trace alone."""
    rows, notes = data_plane_rows(spans, registry)
    if not rows:
        return (
            "data-plane profile: no profile metrics recorded "
            "(run with --profile / REPRO_PROFILE=1)"
        )
    lines: List[str] = ["data-plane profile", "=" * 18]
    columns = ("phase", "task-cpu", "driver-cpu", "rss-peak")
    widths = (8, 9, 10, 9)

    def line(cells: Sequence[str]) -> str:
        return "  " + "  ".join(
            f"{cell:<{width}}" for cell, width in zip(cells, widths)
        )

    for job in sorted({row[0] for row in rows}):
        lines.append(f"job {job}")
        lines.append(line(columns))
        for name, phase, task_cpu, driver_cpu, memory in rows:
            if name == job:
                lines.append(
                    line(
                        (
                            phase, f"{task_cpu:.3f}s", f"{driver_cpu:.3f}s",
                            fmt_bytes(memory),
                        )
                    )
                )
        lines.extend(f"  {text}" for name, text in notes if name == job)
    return "\n".join(lines)
