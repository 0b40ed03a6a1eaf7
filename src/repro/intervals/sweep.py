"""Sweep kernels for 2-way interval joins, over arrays and over items.

* :class:`SortedColumns` — the array kernel behind the reducer-local
  join (:mod:`repro.core.local`) and the crossing-set finder
  (:mod:`repro.core.algorithms.crossing`): one interval column sorted
  by start and by end, whose :meth:`~SortedColumns.windows` derives each probe
  interval's candidate rows as contiguous ``searchsorted`` windows
  expanded by run length — sorted endpoint columns and gapless windows
  after Piatov et al. (cache-efficient sweeping for extended Allen
  predicates), with no per-pair Python.
* :func:`join_pairs` — the item-at-a-time kernels (the cascade's step
  reducers): it dispatches through
  :data:`KERNELS`, one output-sensitive kernel per Allen predicate —
  endpoint hash-groups for the ``equals``/``starts``/``finishes``
  families, a sorted-start bisect for ``meets``/``overlaps``, a
  dual-sorted prefix/suffix scan for ``during``/``contains``,
  :func:`before_pairs` for the sequence predicates; inverses reuse their
  converse's kernel with the sides swapped, and a predicate without a
  kernel filters :func:`intersecting_pairs`.  Payloads travel with the
  intervals so callers can join arbitrary records.

Every kernel enumerates exactly the pairs the predicate's truth function
accepts (property-tested against the brute-force nested loop).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.columnar.batch import ranged_targets
from repro.intervals.allen import AllenPredicate, get_predicate
from repro.intervals.interval import Interval

__all__ = [
    "SortedColumns",
    "INTERSECTING",
    "ENDING_BEFORE",
    "STARTING_AFTER",
    "ALL_ROWS",
    "intersecting_pairs",
    "before_pairs",
    "column_items",
    "join_pairs",
    "KERNELS",
    "register_kernel",
    "kernel_for",
]


def column_items(starts, ends, payloads) -> List[Tuple[Interval, int]]:
    """Sweep items from endpoint columns: ``(Interval, payload)`` pairs
    in column order.

    The columnar data plane's reducers call the kernels with payload
    *ids* instead of row objects — every kernel orders items only by
    ``item[0].start`` / ``item[0].end`` (stably), so enumeration over
    ``(Interval, gid)`` items is pair-for-pair identical to the records
    plane's ``(Interval, row)`` items.
    """
    return [
        (Interval(start, end), payload)
        for start, end, payload in zip(
            starts.tolist(), ends.tolist(), payloads.tolist()
        )
    ]

#: The candidate sets :meth:`SortedColumns.windows` derives for a probe
#: interval ``[s, e]``: rows sharing a point with it, rows ending
#: strictly before ``s``, rows starting strictly after ``e``, every row.
INTERSECTING, ENDING_BEFORE, STARTING_AFTER, ALL_ROWS = range(4)


class SortedColumns:
    """One interval column — ``starts``/``ends`` in row order, float64 or
    ``object`` for endpoints float64 cannot hold exactly — with its
    by-start and by-end orders, computed on first use.  :meth:`restrict`
    narrows the candidate rows without sorting again (the full orders
    are shared and filtered); row indices stay the unrestricted column's.
    """

    def __init__(self, starts, ends, active=None, _full_orders=None) -> None:
        self.starts = starts
        self.ends = ends
        #: boolean row mask of the candidate rows; ``None`` = every row.
        self.active = active
        self._full_orders = {} if _full_orders is None else _full_orders
        self._sorted: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        if self.active is None:
            return len(self.starts)
        return int(np.count_nonzero(self.active))

    def rows(self) -> np.ndarray:
        """The candidate rows' indices, ascending."""
        if self.active is None:
            return np.arange(len(self.starts))
        return np.flatnonzero(self.active)

    def restrict(self, mask: np.ndarray) -> "SortedColumns":
        """The same column with only the rows under ``mask`` as candidates."""
        if self.active is not None:
            mask = mask & self.active
        return SortedColumns(self.starts, self.ends, mask, self._full_orders)

    def _by(self, side: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row order, sorted keys)`` of the candidate rows by start
        (``side`` 0) or by end (1)."""
        hit = self._sorted.get(side)
        if hit is None:
            column = self.ends if side else self.starts
            order = self._full_orders.get(side)
            if order is None:
                order = np.argsort(column, kind="stable")
                self._full_orders[side] = order
            if self.active is not None:
                order = order[self.active[order]]
            hit = self._sorted[side] = (order, column[order])
        return hit

    def window_sizes(self, kind: int, starts, ends) -> np.ndarray:
        """How many candidate rows each probe ``[starts[i], ends[i]]``
        has under ``kind`` — what :meth:`windows` would expand."""
        if kind == ALL_ROWS:
            return np.full(len(starts), len(self), dtype=np.int64)
        if kind == STARTING_AFTER:
            return len(self) - np.searchsorted(self._by(0)[1], ends, "right")
        ending_before = np.searchsorted(self._by(1)[1], starts, "left")
        if kind == ENDING_BEFORE:
            return ending_before
        # Rows starting at or before the probe's end, less those already
        # over before its start (a subset: start <= end on both sides).
        return np.searchsorted(self._by(0)[1], ends, "right") - ending_before

    def windows(self, kind: int, starts, ends) -> Tuple[np.ndarray, np.ndarray]:
        """``(probe index, row index)`` for every candidate row of every
        probe, in no particular order."""
        if kind != INTERSECTING:
            # A prefix of the by-end order, or a suffix of the by-start one.
            ending = kind == ENDING_BEFORE
            order, _ = self._by(1 if ending else 0)
            sizes = self.window_sizes(kind, starts, ends)
            lo = np.zeros_like(sizes) if ending else len(order) - sizes
            position, probe = ranged_targets(lo, lo + sizes - 1)
            return probe, order[position]
        order, keys = self._by(0)
        # Closed intersection = rows starting inside the probe, plus the
        # probes whose start falls in (row.start, row.end]: two disjoint
        # families of contiguous windows.
        position, probe = ranged_targets(
            np.searchsorted(keys, starts, "left"),
            np.searchsorted(keys, ends, "right") - 1,
        )
        by_start = np.argsort(starts, kind="stable")
        probe_keys = starts[by_start]
        probe_position, row = ranged_targets(
            np.searchsorted(probe_keys, keys, "right"),
            np.searchsorted(probe_keys, self.ends[order], "right") - 1,
        )
        return (
            np.concatenate([probe, by_start[probe_position]]),
            np.concatenate([order[position], order[row]]),
        )


L = TypeVar("L")
R = TypeVar("R")

Item = Tuple[Interval, L]
#: A kernel enumerates the satisfying cross-side pairs of one predicate.
Kernel = Callable[
    [Sequence[Tuple[Interval, L]], Sequence[Tuple[Interval, R]]],
    Iterator[Tuple[Tuple[Interval, L], Tuple[Interval, R]]],
]


def intersecting_pairs(
    left: Sequence[Tuple[Interval, L]],
    right: Sequence[Tuple[Interval, R]],
) -> Iterator[Tuple[Tuple[Interval, L], Tuple[Interval, R]]]:
    """All cross-side pairs of intervals sharing at least one point.

    Implements the standard sort-merge interval intersection: both sides
    are sorted by start; for each item the opposite side's active window
    (items starting no later whose end has not yet passed) is scanned.
    Each intersecting pair is produced exactly once.
    """
    ls = sorted(left, key=lambda item: item[0].start)
    rs = sorted(right, key=lambda item: item[0].start)
    i = j = 0
    while i < len(ls) and j < len(rs):
        li, ri = ls[i], rs[j]
        if li[0].start <= ri[0].start:
            # li is the next interval to open; pair it with every already-
            # open right interval still covering li's start.
            for k in range(j, len(rs)):
                other = rs[k]
                if other[0].start > li[0].end:
                    break
                if other[0].end >= li[0].start:
                    yield li, other
            i += 1
        else:
            for k in range(i, len(ls)):
                other = ls[k]
                if other[0].start > ri[0].end:
                    break
                if other[0].end >= ri[0].start:
                    yield other, ri
            j += 1
    # Drain the remaining side against the other's still-open intervals.
    while i < len(ls):
        li = ls[i]
        for k in range(j, len(rs)):
            other = rs[k]
            if other[0].start > li[0].end:
                break
            if other[0].end >= li[0].start:
                yield li, other
        i += 1
    while j < len(rs):
        ri = rs[j]
        for k in range(i, len(ls)):
            other = ls[k]
            if other[0].start > ri[0].end:
                break
            if other[0].end >= ri[0].start:
                yield other, ri
        j += 1


def before_pairs(
    left: Sequence[Tuple[Interval, L]],
    right: Sequence[Tuple[Interval, R]],
) -> Iterator[Tuple[Tuple[Interval, L], Tuple[Interval, R]]]:
    """All pairs with ``left.end < right.start`` (Allen ``before``).

    Output-sensitive: the left side is sorted by end point once; each right
    interval then pairs with the strict prefix of left intervals ending
    before its start.
    """
    ls = sorted(left, key=lambda item: item[0].end)
    ends = [item[0].end for item in ls]
    for ri in right:
        cutoff = bisect.bisect_left(ends, ri[0].start)
        for k in range(cutoff):
            yield ls[k], ri


# ----------------------------------------------------------------------
# Per-predicate kernels.  Conventions: ``u`` is the left operand, ``v``
# the right; every kernel enumerates exactly the pairs where the
# predicate's truth function holds, and inverse predicates reuse their
# converse's kernel through :func:`_swapped`.
# ----------------------------------------------------------------------

def _swapped(kernel: Kernel) -> Kernel:
    """The converse kernel: ``P(u, v)`` iff ``inverse(v, u)``, so run the
    inverse's kernel with the sides exchanged and flip each pair back."""

    def swapped(left, right):
        for ritem, litem in kernel(right, left):
            yield litem, ritem

    return swapped


def _meets_kernel(left, right):
    """``u.end == v.start`` with both intervals non-degenerate on the
    touching side: index rights by start, bisect each left's end."""
    rs = sorted(
        (item for item in right if item[0].start < item[0].end),
        key=lambda item: item[0].start,
    )
    starts = [item[0].start for item in rs]
    for litem in left:
        u = litem[0]
        if not u.start < u.end:
            continue
        lo = bisect.bisect_left(starts, u.end)
        hi = bisect.bisect_right(starts, u.end)
        for k in range(lo, hi):
            yield litem, rs[k]


def _overlaps_kernel(left, right):
    """``u.start < v.start < u.end < v.end``: the candidate window of each
    left is the rights starting strictly inside ``u``; the last condition
    is checked per candidate (every candidate already intersects)."""
    rs = sorted(right, key=lambda item: item[0].start)
    starts = [item[0].start for item in rs]
    for litem in left:
        u = litem[0]
        lo = bisect.bisect_right(starts, u.start)
        hi = bisect.bisect_left(starts, u.end)
        for k in range(lo, hi):
            if rs[k][0].end > u.end:
                yield litem, rs[k]


def _starts_kernel(left, right):
    """``u.start == v.start and u.end < v.end``: hash-group rights by
    start point, bisect the group's sorted ends."""
    by_start: Dict[float, List] = defaultdict(list)
    for item in right:
        by_start[item[0].start].append(item)
    ends_by_start: Dict[float, List[float]] = {}
    for start, group in by_start.items():
        group.sort(key=lambda item: item[0].end)
        ends_by_start[start] = [item[0].end for item in group]
    for litem in left:
        u = litem[0]
        group = by_start.get(u.start)
        if not group:
            continue
        for k in range(bisect.bisect_right(ends_by_start[u.start], u.end), len(group)):
            yield litem, group[k]


def _finishes_kernel(left, right):
    """``u.end == v.end and v.start < u.start``: hash-group rights by end
    point, bisect the group's sorted starts."""
    by_end: Dict[float, List] = defaultdict(list)
    for item in right:
        by_end[item[0].end].append(item)
    starts_by_end: Dict[float, List[float]] = {}
    for end, group in by_end.items():
        group.sort(key=lambda item: item[0].start)
        starts_by_end[end] = [item[0].start for item in group]
    for litem in left:
        u = litem[0]
        group = by_end.get(u.end)
        if not group:
            continue
        for k in range(bisect.bisect_left(starts_by_end[u.end], u.start)):
            yield litem, group[k]


def _equals_kernel(left, right):
    """Hash join on the ``(start, end)`` pair."""
    table: Dict[Tuple[float, float], List] = defaultdict(list)
    for item in right:
        table[(item[0].start, item[0].end)].append(item)
    for litem in left:
        u = litem[0]
        for ritem in table.get((u.start, u.end), ()):
            yield litem, ritem


def _during_kernel(left, right):
    """``v.start < u.start and u.end < v.end``: two sorted endpoint
    indexes over the right side; each left scans whichever one-sided
    candidate set is smaller and filters by the other condition."""
    by_start = sorted(right, key=lambda item: item[0].start)
    starts = [item[0].start for item in by_start]
    by_end = sorted(right, key=lambda item: item[0].end)
    ends = [item[0].end for item in by_end]
    n = len(right)
    for litem in left:
        u = litem[0]
        p = bisect.bisect_left(starts, u.start)  # rights starting before u
        q = bisect.bisect_right(ends, u.end)  # n - q rights ending after u
        if p <= n - q:
            for k in range(p):
                if by_start[k][0].end > u.end:
                    yield litem, by_start[k]
        else:
            for k in range(q, n):
                if by_end[k][0].start < u.start:
                    yield litem, by_end[k]


#: Kernel registry, keyed by canonical predicate name.  ``join_pairs``
#: dispatches here; predicates without an entry fall back to filtering
#: the intersection sweep.
KERNELS: Dict[str, Kernel] = {}


def register_kernel(
    predicate: Union[str, AllenPredicate], kernel: Kernel
) -> None:
    """Register (or replace) the kernel enumerating one predicate's pairs.

    The kernel must yield exactly the cross-side pairs for which the
    predicate's truth function holds — :func:`join_pairs` trusts it
    without re-checking.
    """
    KERNELS[get_predicate(predicate).name] = kernel


def kernel_for(
    predicate: Union[str, AllenPredicate],
) -> Optional[Kernel]:
    """The registered kernel for a predicate, or ``None`` (fallback)."""
    return KERNELS.get(get_predicate(predicate).name)


register_kernel("before", before_pairs)
register_kernel("after", _swapped(before_pairs))
register_kernel("meets", _meets_kernel)
register_kernel("met_by", _swapped(_meets_kernel))
register_kernel("overlaps", _overlaps_kernel)
register_kernel("overlapped_by", _swapped(_overlaps_kernel))
register_kernel("starts", _starts_kernel)
register_kernel("started_by", _swapped(_starts_kernel))
register_kernel("during", _during_kernel)
register_kernel("contains", _swapped(_during_kernel))
register_kernel("finishes", _finishes_kernel)
register_kernel("finished_by", _swapped(_finishes_kernel))
register_kernel("equals", _equals_kernel)


def filtered_intersecting_pairs(
    left: Sequence[Tuple[Interval, L]],
    right: Sequence[Tuple[Interval, R]],
    predicate: Union[str, AllenPredicate],
) -> Iterator[Tuple[Tuple[Interval, L], Tuple[Interval, R]]]:
    """The generic colocation path: filter the intersection sweep.

    Correct for every colocation predicate (their satisfying pairs all
    intersect); kept as the fallback for unregistered predicates.
    """
    pred = get_predicate(predicate)
    for litem, ritem in intersecting_pairs(left, right):
        if pred.holds(litem[0], ritem[0]):
            yield litem, ritem


def join_pairs(
    left: Sequence[Tuple[Interval, L]],
    right: Sequence[Tuple[Interval, R]],
    predicate: Union[str, AllenPredicate],
) -> Iterator[Tuple[Tuple[Interval, L], Tuple[Interval, R]]]:
    """All cross-side pairs satisfying one Allen predicate.

    Dispatches through :data:`KERNELS`; predicates without a registered
    kernel filter the intersection stream.
    """
    pred = get_predicate(predicate)
    kernel = KERNELS.get(pred.name)
    if kernel is not None:
        yield from kernel(left, right)
    else:
        yield from filtered_intersecting_pairs(left, right, pred)
