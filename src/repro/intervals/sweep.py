"""The array sweep: 2-way interval joins over endpoint columns.

* :class:`SortedColumns` — one interval column and its sorted orders;
  :class:`WindowPlan` derives each probe interval's candidate rows as
  contiguous ``searchsorted`` windows expanded by run length, once and
  with the probes sorted too — both sides walked in endpoint order,
  gapless windows, after Piatov et al. (cache-efficient sweeping for
  extended Allen predicates), with no per-pair Python.
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
    "WindowPlan",
    "hull",
    "window_kind",
    "window_blocks",
    "true_pairs",
    "join_pairs",
]

#: The candidate sets :class:`WindowPlan` derives for a probe
#: interval ``[s, e]``: rows sharing a point with it, rows ending
#: strictly before ``s``, rows starting strictly after ``e``, every row.
INTERSECTING, ENDING_BEFORE, STARTING_AFTER, ALL_ROWS = range(4)
#: The kinds by name, indexed by kind (what ``repro explain`` prints).
WINDOW_NAMES = ("intersecting", "ending-before", "starting-after", "all-rows")


class SortedColumns:
    """One interval column — ``starts``/``ends`` in row order, float64 or
    ``object`` for endpoints float64 cannot hold exactly — with its
    by-start and by-end orders, each computed on first use (the by-end
    one only by ``ENDING_BEFORE`` windows).  :meth:`restrict` narrows
    the candidate rows without sorting again (the full orders are
    shared and filtered); row indices stay the unrestricted column's.
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


class WindowPlan:
    """The candidate windows of the probes ``[starts[i], ends[i]]`` over
    ``index`` under ``kind``, computed once: the probes are visited in
    the order of the endpoint the kind searches with, so every
    ``searchsorted`` walks its keys forwards, and the same bounds give
    the per-probe :attr:`sizes` (in visiting order; their sum is the
    candidate count) and what :meth:`blocks` expands."""

    __slots__ = ("sizes", "_by", "_rows", "_lo", "_hi", "_across")

    def __init__(self, index: SortedColumns, kind: int, starts, ends) -> None:
        self._by = self._across = None
        if kind == ALL_ROWS:
            self._rows = index.rows()
            lo, hi = 0, len(self._rows) - 1
        else:
            searched = ends if kind == STARTING_AFTER else starts
            self._by = by = np.argsort(searched, kind="stable")
            searched = searched[by]
            self._rows, keys = index._by(1 if kind == ENDING_BEFORE else 0)
            if kind == ENDING_BEFORE:  # a prefix of the by-end order
                lo, hi = 0, np.searchsorted(keys, searched, "left") - 1
            elif kind == STARTING_AFTER:  # a suffix of the by-start order
                lo, hi = np.searchsorted(keys, searched, "right"), len(keys) - 1
            else:
                # Closed intersection = the rows starting inside the
                # probe, plus the probes whose start falls in
                # (row.start, row.end]: two disjoint families of
                # contiguous windows, the second over the sorted probes.
                lo = np.searchsorted(keys, searched, "left")
                hi = np.searchsorted(keys, ends[by], "right") - 1
                self._across = (
                    np.searchsorted(searched, keys, "right"),
                    np.searchsorted(searched, index.ends[self._rows], "right") - 1,
                )
        zero = np.zeros(len(starts), dtype=np.int64)
        self._lo, self._hi = zero + lo, zero + hi
        self.sizes = self._hi - self._lo + 1
        if self._across is not None:
            # Each row's probe window adds one to every probe in it: a
            # difference array over the windows' bounds.
            self.sizes += np.cumsum(
                np.bincount(self._across[0], minlength=len(zero) + 1)
                - np.bincount(self._across[1] + 1, minlength=len(zero) + 1)
            )[:-1]

    def blocks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """``(probe index, row index)`` — into the caller's arrays and
        the unrestricted column — for every candidate row of every
        probe: consecutive probes in visiting order, at most
        :data:`MAX_CANDIDATE_PAIRS` candidate pairs per block."""
        for first, stop in _blocks(self.sizes):
            position, probe = ranged_targets(
                self._lo[first:stop], self._hi[first:stop]
            )
            probe += first
            if self._across is not None:
                # The part of each row's probe window inside the block.
                lo = np.maximum(self._across[0], first)
                hi = np.minimum(self._across[1], stop - 1)
                inside, row = ranged_targets(lo, np.maximum(hi, lo - 1))
                probe = np.concatenate([probe, inside])
                position = np.concatenate([position, row])
            yield (
                probe if self._by is None else self._by[probe]
            ), self._rows[position]


def window_blocks(
    index: SortedColumns, kind: int, starts, ends
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """:meth:`WindowPlan.blocks` of ``kind`` for the probes
    ``[starts[i], ends[i]]`` over ``index``."""
    return WindowPlan(index, kind, starts, ends).blocks()


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
