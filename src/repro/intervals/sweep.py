"""The array sweep: 2-way interval joins over endpoint columns.

* :class:`SortedColumns` — one interval column sorted by start and by
  end, whose :meth:`~SortedColumns.windows` derives each probe
  interval's candidate rows as contiguous ``searchsorted`` windows
  expanded by run length — sorted endpoint columns and gapless windows
  after Piatov et al. (cache-efficient sweeping for extended Allen
  predicates), with no per-pair Python.
* :func:`true_pairs` — the pair kernel, one parameterised sweep for all
  thirteen predicates: :func:`window_kind` picks the predicate's
  candidate windows (the only place a predicate is mapped to its access
  path), :func:`window_blocks` expands them at most
  :data:`MAX_CANDIDATE_PAIRS` at a time, ``AllenPredicate.holds_columns``
  masks them.  The reducer-local join (:mod:`repro.core.local`), the
  crossing-set finder (:mod:`repro.core.algorithms.crossing`) and the
  cascade's step reducers (:mod:`repro.core.algorithms.cascade`) all
  join through it.
* :func:`join_pairs` — the kernel's item-level adapter, for callers
  holding ``(Interval, payload)`` items instead of columns.

The kernel enumerates exactly the pairs the predicate's truth function
accepts (property-tested against the brute-force nested loop).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.columnar.batch import endpoint_column, ranged_targets
from repro.intervals.allen import AllenPredicate, get_predicate

__all__ = [
    "SortedColumns",
    "INTERSECTING",
    "ENDING_BEFORE",
    "STARTING_AFTER",
    "ALL_ROWS",
    "WINDOW_NAMES",
    "MAX_CANDIDATE_PAIRS",
    "hull",
    "window_kind",
    "window_blocks",
    "true_pairs",
    "join_pairs",
]

#: The candidate sets :meth:`SortedColumns.windows` derives for a probe
#: interval ``[s, e]``: rows sharing a point with it, rows ending
#: strictly before ``s``, rows starting strictly after ``e``, every row.
INTERSECTING, ENDING_BEFORE, STARTING_AFTER, ALL_ROWS = range(4)
#: The kinds by name, indexed by kind (what ``repro explain`` prints).
WINDOW_NAMES = ("intersecting", "ending-before", "starting-after", "all-rows")


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

    @classmethod
    def of_intervals(cls, intervals) -> "SortedColumns":
        """The column of ``intervals``, in their order (``object``
        columns when an endpoint is not float64-exact)."""
        return cls(
            endpoint_column([interval.start for interval in intervals]),
            endpoint_column([interval.end for interval in intervals]),
        )

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


def hull(columns: Iterable[SortedColumns]) -> Optional[Tuple[Any, Any]]:
    """``(least start, greatest end)`` over every row of ``columns``
    (restricted or not) as Python numbers, or ``None`` without a row."""
    columns = [column for column in columns if len(column.starts)]
    if not columns:
        return None
    lo = min(column.starts.min() for column in columns)
    hi = max(column.ends.max() for column in columns)
    # A float64 extreme becomes a float; an ``object`` column's already
    # is the exact Python number.
    return tuple(v.item() if isinstance(v, np.generic) else v for v in (lo, hi))


#: The most candidate pairs :func:`window_blocks` expands at a time.  A
#: single probe with more candidates than this is expanded alone.
MAX_CANDIDATE_PAIRS = 1 << 18


def window_blocks(
    index: SortedColumns, kind: int, starts, ends
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``index.windows(kind, starts, ends)`` a block at a time: the
    ``(probe index, row index)`` candidate pairs of consecutive probes,
    at most :data:`MAX_CANDIDATE_PAIRS` per block."""
    sizes = index.window_sizes(kind, starts, ends)
    for lo, hi in _blocks(sizes):
        probe, row = index.windows(kind, starts[lo:hi], ends[lo:hi])
        yield (probe + lo if lo else probe), row


def _blocks(sizes: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Cut consecutive probes into ``[lo, hi)`` blocks whose candidate
    windows total at most :data:`MAX_CANDIDATE_PAIRS`."""
    running = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        before = int(running[lo - 1]) if lo else 0
        hi = int(
            np.searchsorted(running, before + MAX_CANDIDATE_PAIRS, "right")
        )
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def window_kind(predicate: AllenPredicate, indexed_is_left: bool = False) -> int:
    """The candidate windows ``predicate`` needs over its indexed operand
    — the right one, or the left when ``indexed_is_left`` — for probes
    from the other: a colocation predicate's true pairs all intersect; a
    sequence predicate puts one operand wholly first, so the indexed
    rows start after a probe from that operand and end before a probe
    from the other."""
    if predicate.is_colocation:
        return INTERSECTING
    if predicate.enforces_left_first() != indexed_is_left:
        return STARTING_AFTER
    return ENDING_BEFORE


def true_pairs(
    predicate: AllenPredicate, left: SortedColumns, right: SortedColumns
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The pair kernel: the ``(left row, right row)`` index columns of
    the pairs satisfying ``predicate``, block by block and in no
    particular order — every left interval's candidate window over
    ``right``'s sorted endpoints, kept where the predicate holds.  Every
    row of ``left`` probes; only ``right`` may be restricted."""
    kind = window_kind(predicate)
    for probe, row in window_blocks(right, kind, left.starts, left.ends):
        keep = predicate.holds_columns(
            left.starts[probe], left.ends[probe],
            right.starts[row], right.ends[row],
        )
        yield probe[keep], row[keep]


#: An ``(Interval, payload)`` item of either side.
LeftItem = TypeVar("LeftItem")
RightItem = TypeVar("RightItem")


def join_pairs(
    left: Sequence[LeftItem],
    right: Sequence[RightItem],
    predicate: Union[str, AllenPredicate],
) -> Iterator[Tuple[LeftItem, RightItem]]:
    """All cross-side pairs of ``(Interval, payload)`` items satisfying
    one Allen predicate (a name or an :class:`AllenPredicate`): the
    caller's own items, in no particular order, nothing for an empty
    side.  The item-level adapter of :func:`true_pairs` — endpoints
    float64 cannot hold exactly go on ``object`` columns."""
    columns = [
        SortedColumns.of_intervals([item[0] for item in side])
        for side in (left, right)
    ]
    for left_rows, right_rows in true_pairs(get_predicate(predicate), *columns):
        for i, j in zip(left_rows.tolist(), right_rows.tolist()):
            yield left[i], right[j]
