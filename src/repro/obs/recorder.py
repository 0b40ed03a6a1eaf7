"""The observer threaded through a run: protocol, recorder, null object.

The engine — ``mapreduce/``, ``columnar/``, ``intervals/`` and
``core/algorithms/`` — reports to exactly one object through the
:class:`Observer` protocol below and imports nothing else from
:mod:`repro.obs`.  Facts travel as span attributes and counter deltas;
everything else is a function of the spans: the metric registry is
folded from them when it is read, and live telemetry, profiles and trace
files are :class:`~repro.obs.sinks.TraceSink` objects subscribed to the
recorder's span stream.  :class:`TraceRecorder` implements the protocol
for an observed run, :class:`NullRecorder` for an unobserved one.

A recorder hands out hierarchical :class:`~repro.obs.span.Span` context
managers.  Nesting is tracked per thread (a thread-local span stack), so
serial code gets parenting for free; code running on worker threads —
the ``threads`` reduce executor — passes ``parent=`` explicitly and the
recorder links the span under it thread-safely.

The recorder always keeps the finished spans (flat list + tree), which
is what :class:`~repro.obs.report.RunReport` and tests consume; every
sink sees each span as it opens and again, fully annotated, as it
closes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import (
    Any,
    ContextManager,
    Iterator,
    List,
    Optional,
    Protocol,
    TYPE_CHECKING,
)

from repro.obs.span import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live import TelemetryHub
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import Profiler

__all__ = ["Observer", "TraceRecorder", "NullRecorder"]


class Observer(Protocol):
    """Everything the engine may ask of whoever is watching a run."""

    def start_span(self, name: str, **attributes: Any) -> Any:
        """Open a span (``kind=`` and ``parent=`` among the keywords);
        the engine annotates the returned object (``annotate``, ``kind``,
        ``counters``, ``start``) and hands it back to :meth:`end_span`."""

    def end_span(self, span: Any) -> None:
        """Close a span opened with :meth:`start_span`."""

    def span(self, name: str, **attributes: Any) -> ContextManager[Any]:
        """:meth:`start_span` / :meth:`end_span` around a ``with`` block."""

    def record_job(self, result: Any) -> None:
        """Register one executed job's :class:`JobResult`."""


class TraceRecorder:
    """Records a tree of spans plus the job results of one run.

    Parameters
    ----------
    sinks:
        Zero or more :class:`~repro.obs.sinks.TraceSink` objects; each
        span is pushed to every sink as it opens and as it closes (under
        the recorder lock, so sinks need no locking of their own).
    profile:
        Data-plane profiling, off by default.  When on,
        ``self.profiler`` annotates phase spans, and task spans whose
        body ran in this process, with CPU and memory facts, which the
        data-plane rundown reads back from the spans.
    live:
        Live run telemetry, off by default.  When on, ``self.live``
        folds the job, phase, task and plan spans into the progress
        snapshot behind ``--progress`` and ``--serve-status``.

    The recorder itself is the in-memory record: ``roots`` is the span
    tree, ``spans`` the flat close-order list, and ``job_results`` the
    :class:`~repro.mapreduce.job.JobResult` of every job executed while
    the recorder was attached.  ``metrics`` folds the spans closed so far
    (:func:`~repro.obs.metrics.fold_spans`) each time it is read.
    """

    def __init__(
        self,
        *sinks: Any,
        profile: bool = False,
        live: bool = False,
    ) -> None:
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
        # The optional sinks are imported on use, so a cold import loads
        # neither the profiler nor the live hub's http.server.
        #: The data-plane profiler, or ``None`` when profiling is off.
        self.profiler: Optional["Profiler"] = None
        if profile:
            from repro.obs.profile import Profiler

            self.profiler = Profiler()
        #: The live telemetry hub, or ``None`` when live telemetry is off.
        self.live: Optional["TelemetryHub"] = None
        if live:
            from repro.obs.live import TelemetryHub

            self.live = TelemetryHub()
        # The profiler goes first: what it writes onto a closing span
        # (CPU seconds, memory watermarks) must be there when the hub
        # and the trace sinks read the span.
        own = (self.profiler, self.live)
        self._sinks: List[Any] = [
            sink for sink in own if sink is not None
        ] + list(sinks)

    @property
    def metrics(self) -> "MetricsRegistry":
        """The run's metric families: the fold of the spans closed so
        far, built afresh on every read (a mid-run ``/metrics`` scrape
        included)."""
        from repro.obs.metrics import fold_spans

        with self._lock:
            spans = list(self.spans)
        return fold_spans(spans)

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
                attributes=attributes,
            )
            (self.roots if parent is None else parent.children).append(span)
            for sink in self._sinks:
                sink.opened(span)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close a span opened with :meth:`start_span`."""
        span.end = self._now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
            for sink in self._sinks:
                sink.emit(span)

    # ------------------------------------------------------------------
    def record_job(self, result: Any) -> None:
        """Register one executed job's :class:`JobResult`."""
        with self._lock:
            self.job_results.append(result)

    def close(self) -> None:
        """Flush and close every sink: the live telemetry hub marks the
        run closed and the trace files are finished."""
        with self._lock:
            for sink in self._sinks:
                sink.close()

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
    """What an unobserved run reports to: nobody.

    Implements :class:`Observer` so the engine has one path instead of
    an ``observer is not None`` test around every hook.  It keeps no
    spans, no registry and no job results; what the engine computes only
    to put on a span is what is already at hand (counts, lengths, one
    sort of a job's per-key loads), so an unobserved run pays little more
    than a few no-op calls per task.
    """

    def __init__(self) -> None:
        # Per run, so what the runner writes onto it (kind, counters)
        # is dropped with the run.
        self._span = _NullSpan()

    def start_span(self, name: str, **attributes: Any) -> _NullSpan:
        return self._span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[_NullSpan]:
        yield self._span

    def end_span(self, span: Any) -> None:
        pass

    record_job = end_span
