"""Event sinks: the one way anything subscribes to a recorder.

The sink protocol is three methods, every one called under the
recorder's lock (so sinks need no locking against each other) and on the
thread that opened or closed the span: ``opened(span)`` as a span
starts, ``emit(span)`` once as it closes — fully annotated — and
``close()`` when the recorder shuts down.  The metrics fold
(:class:`~repro.obs.metrics.MetricsFold`), the
:class:`~repro.obs.profile.Profiler` and the
:class:`~repro.obs.live.TelemetryHub` are sinks the recorder attaches
itself; three more cover the trace artifacts:

* :class:`InMemorySink` — keeps the spans (and the roots of their tree)
  in memory; what tests assert against.
* :class:`JsonlSink` — appends one JSON object per span to a file, in
  close order; cheap to grep and to stream.
* :class:`ChromeTraceSink` — writes the Chrome trace-event JSON format
  (``{"traceEvents": [...]}`` with complete ``"ph": "X"`` events), which
  loads directly in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing`` for a flame-graph view of a run.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, TextIO, Union

from repro.obs.span import Span, jsonable

__all__ = [
    "TraceSink",
    "InMemorySink",
    "JsonlSink",
    "ChromeTraceSink",
    "open_sink",
    "load_spans_jsonl",
]


class TraceSink:
    """Base class / protocol for span sinks."""

    def opened(self, span: Span) -> None:
        """Receive one span as it opens (called under the recorder lock,
        on the opening thread)."""

    def emit(self, span: Span) -> None:
        """Receive one finished span (called under the recorder lock)."""

    def close(self) -> None:
        """Flush and release resources; called once at recorder close."""


def _ensure_parent_dir(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)


class InMemorySink(TraceSink):
    """Collects finished spans in memory — the testing sink."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @property
    def roots(self) -> List[Span]:
        """Spans with no parent — the recorded trees."""
        return [span for span in self.spans if span.parent_id is None]

    def emit(self, span: Span) -> None:
        self.spans.append(span)


class JsonlSink(TraceSink):
    """Writes one JSON object per finished span to a JSONL file."""

    def __init__(self, target: Union[str, TextIO]) -> None:
        if isinstance(target, str):
            _ensure_parent_dir(target)
            self._handle: TextIO = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def emit(self, span: Span) -> None:
        self._handle.write(json.dumps(span.to_dict(), default=str))
        self._handle.write("\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class ChromeTraceSink(TraceSink):
    """Exports spans as Chrome trace-event JSON (Perfetto-loadable).

    Every span becomes one *complete* event (``"ph": "X"``) with
    microsecond timestamps relative to the recorder epoch; the span's
    kind becomes the event category and its attributes and counter
    deltas land in ``args``.
    """

    def __init__(self, path: str, process_name: str = "repro") -> None:
        self.path = path
        self.process_name = process_name
        self._events: List[Dict[str, Any]] = []
        self._closed = False

    def emit(self, span: Span) -> None:
        args: Dict[str, Any] = dict(jsonable(span.attributes))
        if span.counters:
            args["counters"] = span.counters
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        self._events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.thread_id,
                "args": args,
            }
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _ensure_parent_dir(self.path)
        payload = {
            "traceEvents": self._events
            + [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": 0,
                    "args": {"name": self.process_name},
                }
            ],
            "displayTimeUnit": "ms",
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)


def load_spans_jsonl(path: str) -> List[Span]:
    """Read a :class:`JsonlSink` trace back into :class:`Span` objects.

    What ``repro report`` uses to rebuild a dashboard from a trace
    artifact after the run is gone.  Blank lines are skipped; children
    lists stay empty (the file is flat, ``parent`` ids carry the tree).
    """
    spans, warnings = load_spans_jsonl_tolerant(path)
    if warnings:
        raise ValueError(warnings[0])
    return spans


def load_spans_jsonl_tolerant(path: str) -> "tuple[List[Span], List[str]]":
    """Like :func:`load_spans_jsonl`, but degrades gracefully.

    Unparsable or non-object lines are skipped and reported as warning
    strings instead of raising, so ``repro report`` can render whatever
    an older or truncated trace still contains.
    """
    spans: List[Span] = []
    warnings: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                warnings.append(f"{path}:{number}: unparsable JSON ({exc})")
                continue
            if not isinstance(payload, dict):
                warnings.append(
                    f"{path}:{number}: expected a span object, got "
                    f"{type(payload).__name__}"
                )
                continue
            spans.append(Span.from_dict(payload))
    return spans, warnings


def open_sink(path: str, fmt: str) -> TraceSink:
    """Build the sink for a CLI/benchmark trace artifact.

    ``fmt`` is ``"chrome"`` (trace-event JSON) or ``"jsonl"``.
    """
    if fmt == "chrome":
        return ChromeTraceSink(path)
    if fmt == "jsonl":
        return JsonlSink(path)
    raise ValueError(f"unknown trace format {fmt!r}; use 'chrome' or 'jsonl'")
