"""The span data model of the observability layer.

A :class:`Span` is one timed region of a run.  Spans nest into the
hierarchy the tracer records, each level a span ``kind``::

    query -> plan, algorithm -> job -> phase (map / shuffle / reduce)
          -> task (the winning attempt) / attempt (a failed one),
             reconciliation

Each span carries wall-clock start/end (seconds relative to its
recorder's epoch), the thread that recorded it, free-form attributes
(including ``modelled_seconds`` cost-model charges where applicable) and
a counter-delta snapshot — the counters gained while the span was open.
The spans are the one record of a run: metrics, reports and dashboards
are computed from them (:func:`repro.obs.metrics.fold_span` dispatches
on ``kind``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Span"]


@dataclass
class Span:
    """One timed, attributed region of a traced run.

    Attributes
    ----------
    name, kind:
        Display name and hierarchy level (one of the kinds above, or a
        free-form string).
    span_id, parent_id:
        Recorder-unique id and the id of the enclosing span (``None``
        for roots).
    start, end:
        Seconds relative to the recorder's epoch; ``end`` is ``None``
        while the span is still open.
    thread_id:
        ``threading.get_ident()`` of the recording thread — reduce-task
        spans recorded by the ``threads`` executor carry their worker
        thread here.
    attributes:
        Free-form annotations (job name, task index, cost charges, …).
    counters:
        Counter deltas (``group -> name -> gained``) observed while the
        span was open.
    children:
        Child spans, in start order.
    """

    name: str
    kind: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    thread_id: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds the span was open (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def annotate(self, **attributes: Any) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly dict of the span (children omitted)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "thread": self.thread_id,
            "attributes": jsonable(self.attributes),
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output (children are not
        reconstructed — JSONL traces are flat; use ``parent`` ids to
        re-link if a tree is needed).  Tolerant of older traces: missing
        fields fall back to neutral defaults instead of raising, so
        ``repro report`` can render what a previous version recorded."""
        return cls(
            name=str(payload.get("name", "?")),
            kind=str(payload.get("kind", "span")),
            span_id=payload.get("id", 0),
            parent_id=payload.get("parent"),
            start=payload.get("start", 0.0),
            end=payload.get("end"),
            thread_id=payload.get("thread", 0),
            attributes=dict(payload.get("attributes") or {}),
            counters=dict(payload.get("counters") or {}),
        )

    def render(self, indent: int = 0) -> str:
        """An indented one-line-per-span rendering of the subtree."""
        line = (
            f"{'  ' * indent}{self.kind}:{self.name} "
            f"[{self.duration * 1e3:.3f} ms]"
        )
        parts = [line]
        for child in self.children:
            parts.append(child.render(indent + 1))
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.kind}:{self.name}, id={self.span_id}, "
            f"children={len(self.children)})"
        )


def jsonable(value: Any) -> Any:
    """Recursively convert a value into JSON-serialisable primitives.

    Scalars pass through; mappings get string keys; sequences become
    lists; anything else is stringified.  Used by the JSONL and Chrome
    sinks so arbitrary span attributes (tuples, grid cells, rows) never
    break serialisation.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(item) for item in value]
    return str(value)
