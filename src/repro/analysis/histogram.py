"""Allen-relationship histograms and temporal profiles.

The paper's conclusion lists "more avenues for analyzing interval data on
map-reduce, e.g. temporal pattern mining" as future work.  This module
provides the two primitives such analyses start from:

* :func:`allen_histogram` — for two interval sets, the exact count of
  pairs standing in each of the thirteen Allen relations, read off the
  array sweep (:mod:`repro.intervals.sweep`).  Sequence relations
  (quadratically many pairs) are counted *without enumeration* — their
  candidate windows are their true pairs, so the window sizes are the
  count; colocation relations are counted as masks over one expansion
  of the whole intersecting windows (output-sensitive), which all eleven
  share, not over the half each one's start order narrows its own
  windows to.  The histogram sums to ``len(left) * len(right)`` — a
  built-in self-check.
* :func:`concurrency_profile` — how many intervals are simultaneously
  active over time, as step-function breakpoints.  The benchmark scaling
  notes in EXPERIMENTS.md are derived from exactly this quantity
  (offered load / join density).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.intervals.allen import ALLEN_PREDICATES
from repro.intervals.interval import Interval
from repro.intervals.sweep import (
    INTERSECTING,
    SortedColumns,
    WindowPlan,
    window_blocks,
    window_kind,
)

__all__ = ["allen_histogram", "concurrency_profile", "peak_concurrency"]


def allen_histogram(
    left: Sequence[Interval], right: Sequence[Interval]
) -> Dict[str, int]:
    """Exact per-relation pair counts between two interval sets.

    >>> h = allen_histogram([Interval(0, 2)], [Interval(3, 5), Interval(1, 4)])
    >>> h["before"], h["overlaps"]
    (1, 1)
    """
    probes = SortedColumns.of_intervals(left)
    index = SortedColumns.of_intervals(right)
    counts: Dict[str, int] = {}
    colocation = []
    for name, predicate in ALLEN_PREDICATES.items():
        if predicate.is_colocation:
            counts[name] = 0
            colocation.append(predicate)
        else:
            plan = WindowPlan(index, window_kind(predicate), probes.starts, probes.ends)
            counts[name] = int(plan.sizes.sum())
    for probe, row in window_blocks(
        index, INTERSECTING, probes.starts, probes.ends
    ):
        endpoints = (
            probes.starts[probe], probes.ends[probe],
            index.starts[row], index.ends[row],
        )
        for predicate in colocation:
            counts[predicate.name] += int(
                np.count_nonzero(predicate.holds_columns(*endpoints))
            )
    return counts


def concurrency_profile(
    intervals: Iterable[Interval],
) -> List[Tuple[float, int]]:
    """Step-function breakpoints ``(time, active_count)``.

    The returned count is the number of intervals active from ``time``
    (inclusive) until the next breakpoint.  Closed-interval semantics: an
    interval is active at both endpoints, so at a point where one
    interval ends and another starts both count.

    >>> concurrency_profile([Interval(0, 2), Interval(1, 3)])
    [(0, 1), (1, 2), (2.0000..., 1), (3.0000..., 0)]  # doctest: +SKIP
    """
    events: List[Tuple[float, int]] = []
    for iv in intervals:
        events.append((iv.start, +1))
        # Closed end: deactivate just past the endpoint.
        events.append((np.nextafter(iv.end, np.inf), -1))
    events.sort()
    profile: List[Tuple[float, int]] = []
    active = 0
    index = 0
    while index < len(events):
        time = events[index][0]
        while index < len(events) and events[index][0] == time:
            active += events[index][1]
            index += 1
        profile.append((time, active))
    return profile


def peak_concurrency(intervals: Iterable[Interval]) -> int:
    """The maximum number of simultaneously active intervals."""
    profile = concurrency_profile(intervals)
    return max((count for _, count in profile), default=0)
