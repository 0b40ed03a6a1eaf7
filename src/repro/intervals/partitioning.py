"""Partitioning of the time range and the Project / Split / Replicate
communication primitives (Section 3 of the paper).

A partitioning divides the complete time range ``[t0, tn)`` into ``l``
contiguous partition-intervals ``[t_i, t_{i+1})``; each partition-interval
doubles as a reducer id.  A map function processes an interval by
*projecting* (one pair, the partition holding the start point), *splitting*
(one pair per partition the interval intersects) or *replicating* (one pair
per partition from the start partition to the end of time) it.

Two construction strategies are provided:

* :meth:`Partitioning.uniform` — equi-width partitions, the paper's setup;
* :meth:`Partitioning.equi_depth` — boundaries at quantiles of observed
  start points, an extension for skewed data evaluated in ablation A2.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import InvalidPartitioningError
from repro.intervals.interval import Interval

__all__ = ["Partitioning"]


def _float_at_or_above(value: float) -> float:
    """The smallest float64 that is not below ``value`` (Python compares
    an int with a float exactly, so the test is not a second rounding)."""
    as_float = float(value)
    if as_float >= value:
        return as_float
    return math.nextafter(as_float, math.inf)


@dataclass(frozen=True)
class Partitioning:
    """A sequence of contiguous half-open partition-intervals.

    The partitioning is stored as its boundary points
    ``b0 < b1 < ... < bl``; partition ``i`` is ``[b_i, b_{i+1})``.  The last
    partition is treated as closed on the right so that every interval whose
    points lie within ``[b0, bl]`` maps somewhere; intervals outside the
    range are clamped to the first/last partition (mirroring how a Hadoop
    range partitioner would route out-of-range keys).
    """

    boundaries: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) < 2:
            raise InvalidPartitioningError(
                "a partitioning needs at least two boundary points"
            )
        for lo, hi in zip(self.boundaries, self.boundaries[1:]):
            if hi <= lo:
                raise InvalidPartitioningError(
                    f"boundaries must strictly increase, got {lo!r} >= {hi!r}"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, t_min: float, t_max: float, parts: int) -> "Partitioning":
        """Equi-width partitioning of ``[t_min, t_max)`` into ``parts``."""
        if parts < 1:
            raise InvalidPartitioningError("parts must be >= 1")
        if t_max <= t_min:
            raise InvalidPartitioningError("t_max must exceed t_min")
        step = (t_max - t_min) / parts
        bounds = [t_min + i * step for i in range(parts)]
        bounds.append(t_max)
        return cls(tuple(bounds))

    @classmethod
    def equi_depth(
        cls, start_points: Sequence[float], parts: int
    ) -> "Partitioning":
        """Partition boundaries at quantiles of the observed start points.

        Produces partitions receiving roughly equal numbers of projected
        intervals even under skew.  Duplicate quantiles (heavy ties) are
        collapsed, so fewer than ``parts`` partitions may result.
        """
        if parts < 1:
            raise InvalidPartitioningError("parts must be >= 1")
        points = np.asarray(sorted(start_points), dtype=float)
        if points.size == 0:
            raise InvalidPartitioningError("equi_depth needs at least one point")
        lo = float(points[0])
        hi = float(points[-1])
        if hi <= lo:
            hi = lo + 1.0
        quantiles = np.quantile(points, np.linspace(0.0, 1.0, parts + 1))
        bounds: List[float] = [lo]
        for q in quantiles[1:-1]:
            q = float(q)
            if q > bounds[-1]:
                bounds.append(q)
        # Right edge must strictly exceed the largest start point so the
        # maximum projects into the final partition, not past it.
        edge = hi + max(1e-9, abs(hi) * 1e-12)
        if edge <= bounds[-1]:
            edge = bounds[-1] + 1.0
        bounds.append(edge)
        return cls(tuple(bounds))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.boundaries) - 1

    def partition_interval(self, index: int) -> Interval:
        """The closed hull ``[b_i, b_{i+1}]`` of partition ``index``.

        The right boundary point belongs to the *next* partition for
        projection purposes, but an interval touching it at a single point
        still colocates there, which is what Split must capture.
        """
        if not 0 <= index < len(self):
            raise IndexError(f"partition index {index} out of range")
        return Interval(self.boundaries[index], self.boundaries[index + 1])

    @property
    def t_min(self) -> float:
        return self.boundaries[0]

    @property
    def t_max(self) -> float:
        return self.boundaries[-1]

    # ------------------------------------------------------------------
    # Point / interval location
    # ------------------------------------------------------------------
    def locate(self, t: float) -> int:
        """The partition whose half-open range contains point ``t``.

        Points left of the range clamp to partition 0; points at or past
        the final boundary clamp to the last partition.
        """
        if t < self.boundaries[0]:
            return 0
        index = bisect.bisect_right(self.boundaries, t) - 1
        return min(index, len(self) - 1)

    def __getstate__(self):
        # The cached boundary array below is not part of the value.
        return {"boundaries": self.boundaries}

    @functools.cached_property
    def _float_bounds(self) -> np.ndarray:
        """Each boundary as the smallest float64 at or above it, which
        decides ``boundary <= point`` exactly for every float64 point
        even when the boundary itself — an integer beyond 2**53, say —
        is not a float64."""
        return np.array([_float_at_or_above(b) for b in self.boundaries])

    def locate_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`locate` over a float64 column, or over an
        ``object`` column of exact Python numbers.

        One ``searchsorted`` replaces the per-point bisect; results are
        element-wise identical to :meth:`locate` (``side="right"``
        matches ``bisect_right`` and the clip reproduces both clamps).
        ``object`` points compare with the boundaries themselves."""
        bounds = self._float_bounds
        if points.dtype == object:
            bounds = np.array(self.boundaries, dtype=object)
        index = np.searchsorted(bounds, points, side="right") - 1
        return np.clip(index, 0, len(self) - 1).astype(np.int64)

    # ------------------------------------------------------------------
    # The three primitives (Section 3)
    # ------------------------------------------------------------------
    def project(self, interval: Interval) -> int:
        """Project: the single partition holding the interval's start."""
        return self.locate(interval.start)

    def split(self, interval: Interval) -> range:
        """Split: every partition sharing at least one point with the
        interval, as a contiguous ``range`` of partition indices."""
        first = self.locate(interval.start)
        last = self.locate(interval.end)
        return range(first, last + 1)

    def replicate(self, interval: Interval) -> range:
        """Replicate: every partition having a point ``>=`` the interval's
        start — the start partition and everything after it."""
        return range(self.locate(interval.start), len(self))

    # ------------------------------------------------------------------
    def crosses_right(self, interval: Interval, index: int) -> bool:
        """Whether the interval's end point lies in a partition after
        ``index`` (condition B1 of Section 5.3)."""
        return self.locate(interval.end) > index

    def crosses_left(self, interval: Interval, index: int) -> bool:
        """Whether the interval's start point lies in a partition before
        ``index`` (condition B2 of Section 5.3)."""
        return self.locate(interval.start) < index

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Partitioning({len(self)} parts over [{self.t_min}, {self.t_max}))"
