"""The :class:`Interval` value type.

An interval ``[start, end]`` is a closed range of time points (or, more
generally, points along any totally ordered real axis — the paper also uses
intervals for spatial extents such as a building's length).  The start and
end points are included; a point is the degenerate interval with
``start == end``, which is how real-valued attributes are embedded into the
interval machinery (Section 9 of the paper).

Instances are immutable, hashable, and ordered by ``(start, end)`` — the
natural order used by the paper's *less-than-order* (Section 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import InvalidIntervalError

__all__ = ["Interval", "span", "point"]


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[start, end]`` with ``start <= end``.

    Parameters
    ----------
    start:
        The first point included in the interval.
    end:
        The last point included in the interval.  Must be ``>= start``.

    Examples
    --------
    >>> u = Interval(2, 5)
    >>> v = Interval(4, 9)
    >>> u.intersects(v)
    True
    >>> u.length
    3
    """

    # Slotted by hand (``dataclass(slots=True)`` needs Python 3.10).
    __slots__ = ("start", "end")

    start: float
    end: float

    def __reduce__(self):
        # A frozen slotted instance cannot be restored through
        # ``setattr``: pickle and copy rebuild it through the
        # constructor, which checks it again.
        return (type(self), (self.start, self.end))

    def __post_init__(self) -> None:
        if math.isnan(self.start) or math.isnan(self.end):
            raise InvalidIntervalError("interval endpoints must not be NaN")
        if self.end < self.start:
            raise InvalidIntervalError(
                f"interval end ({self.end!r}) precedes start ({self.start!r})"
            )

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def length(self) -> float:
        """The extent ``end - start``; zero for point intervals."""
        return self.end - self.start

    def intersects(self, other: "Interval") -> bool:
        """Whether the two closed intervals share at least one point.

        This is the *colocation* test: every colocation predicate of
        Allen's algebra implies :meth:`intersects`.
        """
        return self.start <= other.end and other.start <= self.end

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """The common sub-interval, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def scale(self, factor: float, origin: float = 0.0) -> "Interval":
        """A copy scaled about ``origin`` by a non-negative ``factor``."""
        if factor < 0:
            raise InvalidIntervalError("scale factor must be non-negative")
        return Interval(
            origin + (self.start - origin) * factor,
            origin + (self.end - origin) * factor,
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[float]:
        yield self.start
        yield self.end

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end}]"


def point(t: float) -> Interval:
    """The degenerate interval ``[t, t]`` embedding a real value."""
    return Interval(t, t)


def span(intervals: Iterable[Interval]) -> Interval:
    """The hull of a non-empty collection of intervals.

    Raises
    ------
    InvalidIntervalError
        If the collection is empty.
    """
    it = iter(intervals)
    try:
        first = next(it)
    except StopIteration:
        raise InvalidIntervalError("span() of an empty collection") from None
    lo, hi = first.start, first.end
    for iv in it:
        if iv.start < lo:
            lo = iv.start
        if iv.end > hi:
            hi = iv.end
    return Interval(lo, hi)
