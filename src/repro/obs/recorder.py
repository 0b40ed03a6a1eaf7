"""The :class:`TraceRecorder` — the observer threaded through a run.

A recorder hands out hierarchical :class:`~repro.obs.span.Span` context
managers.  Nesting is tracked per thread (a thread-local span stack), so
serial code gets parenting for free; code running on worker threads —
the ``threads`` reduce executor — passes ``parent=`` explicitly and the
recorder links the span under it thread-safely.

The recorder always keeps the finished spans (flat list + tree), which
is what :class:`~repro.obs.report.RunReport` and tests consume; attached
:class:`~repro.obs.sinks.TraceSink` instances additionally receive every
span as it closes (JSONL event log, Chrome trace export, …).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from repro.obs.live import TelemetryHub, resolve_live
from repro.obs.metrics import SECONDS_BUCKETS, GROUP_WALL, MetricsRegistry
from repro.obs.profile import Profiler, resolve_profile
from repro.obs.span import Span

__all__ = ["TraceRecorder", "NullRecorder"]


class TraceRecorder:
    """Records a tree of spans plus the job results of one run.

    Parameters
    ----------
    sinks:
        Zero or more :class:`~repro.obs.sinks.TraceSink` objects; each
        finished span is pushed to every sink (under the recorder lock,
        so sinks need no locking of their own).
    profile:
        Data-plane profiling: ``None`` (default) defers to
        ``$REPRO_PROFILE``, ``True``/``False``/a level string force it,
        and an existing :class:`~repro.obs.profile.Profiler` is adopted
        as-is.  When active, ``self.profiler`` records CPU/memory/GC/
        serialization facts into the ``profile`` metric group and the
        instrumented layers (runner, shuffle, fs) report through it.
    live:
        Live run telemetry: ``None`` (default) defers to
        ``$REPRO_LIVE``, ``True``/``False``/a stall threshold force it,
        and an existing :class:`~repro.obs.live.TelemetryHub` is adopted
        as-is.  When active, ``self.live`` collects per-task heartbeats
        into the ``live`` metric group and powers ``--progress``,
        ``--serve-status`` and the observed-straggler watchdog.

    The recorder itself is the in-memory record: ``roots`` is the span
    tree, ``spans`` the flat close-order list, and ``job_results`` the
    :class:`~repro.mapreduce.job.JobResult` of every job executed while
    the recorder was attached (what ``JobHistory`` and ``RunReport``
    consume).
    """

    def __init__(
        self, *sinks: Any, profile: Any = None, live: Any = None
    ) -> None:
        self._sinks: List[Any] = list(sinks)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._epoch = time.perf_counter()
        #: finished spans in close order.
        self.spans: List[Span] = []
        #: top-level spans (no parent), in start order.
        self.roots: List[Span] = []
        #: JobResult of every job run under this recorder.
        self.job_results: List[Any] = []
        #: The run's metric families; instrumented code records through
        #: ``observer.metrics`` whenever an observer is attached.
        self.metrics = MetricsRegistry()
        #: The data-plane profiler, or ``None`` when profiling is off.
        self.profiler: Optional[Profiler] = None
        if isinstance(profile, Profiler):
            self.profiler = profile
        else:
            level = resolve_profile(profile)
            if level is not None:
                self.profiler = Profiler(self.metrics, level=level)
        if self.profiler is not None:
            self.profiler.start()
        #: The live telemetry hub, or ``None`` when live telemetry is off.
        self.live: Optional[TelemetryHub] = None
        if isinstance(live, TelemetryHub):
            self.live = live
        else:
            config = resolve_live(live)
            if config is not None:
                self.live = TelemetryHub(self.metrics, config)
        if self.live is not None:
            self.live.start()

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # ------------------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "span",
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Iterator[Span]:
        """Open a span for the ``with`` block's duration.

        ``parent`` defaults to the current thread's innermost open span;
        pass it explicitly when recording from a different thread than
        the one that opened the parent (the ``threads`` executor does).
        """
        span = self.start_span(name, kind=kind, parent=parent, **attributes)
        try:
            yield span
        finally:
            self.end_span(span)

    def start_span(
        self,
        name: str,
        kind: str = "span",
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span; prefer the :meth:`span` context manager."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            self._next_id += 1
            span = Span(
                name=name,
                kind=kind,
                span_id=self._next_id,
                parent_id=parent.span_id if parent is not None else None,
                start=self._now(),
                thread_id=threading.get_ident(),
                attributes=dict(attributes),
            )
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
        stack.append(span)
        if self.profiler is not None:
            self.profiler.on_span_start(span)
        return span

    def record_completed(
        self,
        name: str,
        kind: str = "span",
        parent: Optional[Span] = None,
        duration: float = 0.0,
        counters: Optional[dict] = None,
        **attributes: Any,
    ) -> Span:
        """Record an already-finished span in one call.

        Used for task spans executed in *worker processes*: the worker
        ships back a lightweight ``(duration, counters, attributes)``
        record and the parent materialises the span here, backdating
        ``start`` by the measured duration.  The span never enters the
        thread-local stack (it was not open on this thread), and sinks
        receive it fully annotated.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        now = self._now()
        with self._lock:
            self._next_id += 1
            span = Span(
                name=name,
                kind=kind,
                span_id=self._next_id,
                parent_id=parent.span_id if parent is not None else None,
                start=max(0.0, now - duration),
                thread_id=threading.get_ident(),
                attributes=dict(attributes),
            )
            span.end = now
            if counters:
                span.counters = counters
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
            self.spans.append(span)
            for sink in self._sinks:
                sink.emit(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close a span opened with :meth:`start_span`."""
        span.end = self._now()
        if self.profiler is not None:
            # Before sink emission, so profile annotations (CPU seconds,
            # memory watermarks) reach the JSONL trace.
            self.profiler.on_span_end(span)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
            for sink in self._sinks:
                sink.emit(span)
        self._observe_wall(span)

    def _observe_wall(self, span: Span) -> None:
        """Fold phase/job wall time into the ``wall`` metric group.

        Every phase and job span closes through :meth:`end_span`
        regardless of executor, which makes this the one choke point
        where wall-clock histograms stay complete for free.
        """
        if span.kind == "phase":
            self.metrics.histogram(
                "repro_phase_wall_seconds",
                "Wall-clock seconds spent in each job phase.",
                labels=("job", "phase"),
                group=GROUP_WALL,
                buckets=SECONDS_BUCKETS,
            ).observe(
                span.duration,
                job=span.attributes.get("job", span.name),
                phase=span.name,
            )
        elif span.kind == "job":
            self.metrics.histogram(
                "repro_job_wall_seconds",
                "Wall-clock seconds per MapReduce job.",
                labels=("job",),
                group=GROUP_WALL,
                buckets=SECONDS_BUCKETS,
            ).observe(
                span.duration, job=span.attributes.get("job", span.name)
            )

    # ------------------------------------------------------------------
    def record_job(self, result: Any) -> None:
        """Register one executed job's :class:`JobResult`."""
        with self._lock:
            self.job_results.append(result)

    def add_sink(self, sink: Any) -> None:
        """Attach another sink (receives spans closed from now on)."""
        with self._lock:
            self._sinks.append(sink)

    def close(self) -> None:
        """Flush and close every attached sink; stops the profiler and
        the live telemetry hub (publishing its final ETA-vs-actual
        gauges)."""
        if self.profiler is not None:
            self.profiler.stop()
        if self.live is not None:
            self.live.close()
        with self._lock:
            for sink in self._sinks:
                sink.close()

    def snapshot_spans(self) -> List[Span]:
        """Every span recorded so far — closed spans plus the spans
        still *open* right now.  This is what the live status endpoint
        renders the mid-run dashboard from; open spans keep
        ``end=None`` and renderers substitute the current time."""
        with self._lock:
            seen = set()
            out: List[Span] = []
            for span in self.spans:
                out.append(span)
                seen.add(span.span_id)
            for root in self.roots:
                for span in root.walk():
                    if span.span_id not in seen:
                        out.append(span)
                        seen.add(span.span_id)
            return out

    # ------------------------------------------------------------------
    def find(
        self, kind: Optional[str] = None, name: Optional[str] = None
    ) -> List[Span]:
        """Finished spans filtered by kind and/or exact name."""
        return [
            span
            for span in self.spans
            if (kind is None or span.kind == kind)
            and (name is None or span.name == name)
        ]

    def render(self) -> str:
        """The recorded span tree as indented text."""
        return "\n".join(root.render() for root in self.roots)

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _NullSpan:
    """The span of an unobserved run: annotations go nowhere."""

    start = 0.0

    def annotate(self, **attributes: Any) -> None:
        pass


class NullRecorder:
    """What an unobserved run records into.

    Implements the part of :class:`TraceRecorder` the job runner and the
    file systems call, so that code has one path instead of an
    ``observer is not None`` test around every hook: spans and
    ``record_job`` are no-ops, and ``metrics`` is a real registry thrown
    away with the run (a few samples per task — cheaper than a second,
    null implementation of every metric type to keep in step).  Work
    that is costly to *compute* for a recording (partition byte
    statistics, staged-byte samples) is still skipped by its caller.
    """

    profiler = None
    live = None

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        # Per run, so what the runner writes onto it (kind, counters)
        # is dropped with the run.
        self._span = _NullSpan()

    def start_span(self, name: str, **attributes: Any) -> _NullSpan:
        return self._span

    record_completed = start_span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[_NullSpan]:
        yield self._span

    def end_span(self, span: Any) -> None:
        pass

    record_job = end_span
