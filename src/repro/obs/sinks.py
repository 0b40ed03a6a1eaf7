"""Event sinks: the one way anything subscribes to a recorder.

The sink protocol is three methods, every one called under the
recorder's lock (so sinks need no locking against each other) and on the
thread that opened or closed the span: ``opened(span)`` as a span
starts, ``emit(span)`` once as it closes — fully annotated — and
``close()`` when the recorder shuts down.  The metrics fold
(:class:`~repro.obs.metrics.MetricsFold`), the
:class:`~repro.obs.profile.Profiler` and the
:class:`~repro.obs.live.TelemetryHub` are sinks the recorder attaches
itself.  The recorder keeps the spans in memory itself (``spans``,
``roots``); the one sink for a trace artifact is :class:`JsonlSink`,
which appends one JSON object per span to a file, in close order —
cheap to grep and to stream.  It is the one trace format: ``repro run
--trace`` writes it and ``repro report`` reads it back
(:func:`load_spans_jsonl`).
"""

from __future__ import annotations

import json
import os
from typing import List, TextIO, Union

from repro.obs.span import Span

__all__ = [
    "TraceSink",
    "JsonlSink",
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

