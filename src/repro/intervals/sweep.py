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

**Order-aware windows.**  Every colocation predicate fixes which
operand starts no later (its less-than-order, ``predicate.orders``), so
only half of a probe's intersecting window can hold a partner:
:func:`window_kind` picks ``STARTING_WITHIN`` — the rows starting inside
the probe — when the probe's operand starts first or the starts are
equal, else ``COVERING_START`` — the rows whose span covers the probe's
start, equal starts included — and :class:`WindowPlan` expands that
half alone.  ``INTERSECTING`` is both halves, for callers that mask
several predicates over one expansion; :meth:`WindowPlan.intersecting`
counts it without expanding it.

**Sorted once.**  A sweep needs its columns in endpoint order, and the
engine delivers them in start order where it can, as Hadoop's secondary
sort delivered the paper's reducers their values: a base relation's map
input is fed in the relation's memoised :meth:`SortedColumns.start_order`,
routing emits a record's targets in record order, and the shuffle keeps
that order within a key — so each base-relation tag of a key group
arrives sorted by start.  Every sort here first checks, in one O(n)
pass, whether its keys are non-decreasing already and skips the stable
``argsort`` when they are (it would be the identity).  Partial tuples,
flag blocks and deeper probes of a multi-way join do not arrive in start
order and are sorted as before.
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
    "STARTING_WITHIN",
    "COVERING_START",
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
#: strictly before ``s``, rows starting strictly after ``e``, every row;
#: and the two halves of the intersecting set — rows starting inside
#: ``[s, e]`` (at or after ``s``), and rows ``[a, b]`` with ``a <= s <=
#: b`` (starting at or before ``s``, equal starts included).
(
    INTERSECTING, ENDING_BEFORE, STARTING_AFTER, ALL_ROWS,
    STARTING_WITHIN, COVERING_START,
) = range(6)
#: The kinds by name, indexed by kind (what ``repro explain`` prints).
WINDOW_NAMES = (
    "intersecting", "ending-before", "starting-after", "all-rows",
    "starting-within", "covering-start",
)


class SortedColumns:
    """One interval column — ``starts``/``ends`` in row order, float64 or
    ``object`` for endpoints float64 cannot hold exactly — with its
    by-start and by-end orders, each computed on first use (the by-end
    one only by ``ENDING_BEFORE`` windows).  :meth:`restrict` narrows
    the candidate rows without sorting again (the full orders are
    shared and filtered); row indices stay the unrestricted column's.
    An order is sorted for only when the column is not in it already
    ("Sorted once" above).
    """

    def __init__(self, starts, ends, active=None, _full_orders=None) -> None:
        self.starts = starts
        self.ends = ends
        #: boolean row mask of the candidate rows; ``None`` = every row.
        self.active = active
        #: side -> the stable order of every row, ``None`` = row order.
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

    def start_order(self) -> Optional[np.ndarray]:
        """The stable by-start order of every row (restricted or not),
        computed once and shared with :meth:`restrict` views — ``None``
        when the rows are in it already."""
        return self._full_order(0)

    def _full_order(self, side: int) -> Optional[np.ndarray]:
        if side not in self._full_orders:
            self._full_orders[side] = _stable_order(self.ends if side else self.starts)
        return self._full_orders[side]

    def _by(self, side: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row order, sorted keys)`` of the candidate rows by start
        (``side`` 0) or by end (1)."""
        hit = self._sorted.get(side)
        if hit is None:
            column = self.ends if side else self.starts
            order = self._full_order(side)
            if order is None:
                order = self.rows()
                keys = column if self.active is None else column[order]
            else:
                if self.active is not None:
                    order = order[self.active[order]]
                keys = column[order]
            hit = self._sorted[side] = (order, keys)
        return hit


def _stable_order(keys: np.ndarray) -> Optional[np.ndarray]:
    """The stable order that sorts ``keys`` — or ``None`` when they are
    non-decreasing already, which one O(n) pass tells."""
    if len(keys) < 2 or (keys[1:] >= keys[:-1]).all():
        return None
    return np.argsort(keys, kind="stable")


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
    the order of the endpoint the kind searches with (sorted for only
    when they do not come in it), so every
    ``searchsorted`` walks its keys forwards, and the same bounds give
    the per-probe :attr:`sizes` (in visiting order; their sum is the
    candidate count) and what :meth:`blocks` expands.

    The intersecting set is two disjoint families of contiguous windows:
    the rows starting inside the probe (``STARTING_WITHIN``, a window of
    the by-start order per probe), and the rows starting before it whose
    span covers its start — per row, a window of the sorted probes
    (``COVERING_START`` widens it to the probes starting exactly where
    the row does)."""

    __slots__ = ("sizes", "_index", "_probes", "_by", "_rows", "_lo", "_hi", "_across")

    def __init__(self, index: SortedColumns, kind: int, starts, ends) -> None:
        self._index, self._by, self._across = index, None, None
        if kind == ALL_ROWS:
            self._rows = index.rows()
            lo, hi = 0, len(self._rows) - 1
        else:
            searched = ends if kind == STARTING_AFTER else starts
            self._by = by = _stable_order(searched)
            if by is not None:
                searched, ends = searched[by], ends[by]
            self._probes = (searched, ends)
            self._rows, keys = index._by(1 if kind == ENDING_BEFORE else 0)
            if kind == ENDING_BEFORE:  # a prefix of the by-end order
                lo, hi = 0, np.searchsorted(keys, searched, "left") - 1
            elif kind == STARTING_AFTER:  # a suffix of the by-start order
                lo, hi = np.searchsorted(keys, searched, "right"), len(keys) - 1
            elif kind == COVERING_START:
                lo, hi = 0, -1
            else:
                lo = np.searchsorted(keys, searched, "left")
                hi = np.searchsorted(keys, ends, "right") - 1
            if kind in (INTERSECTING, COVERING_START):
                self._across = self._covered(
                    "left" if kind == COVERING_START else "right"
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

    def _covered(self, side: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per by-start row ``[a, b]``, the first and last sorted probe
        whose start lies in ``[a, b]`` (``side`` ``"left"``) or ``(a,
        b]`` (``"right"``)."""
        searched = self._probes[0]
        rows, keys = self._index._by(0)
        return (
            np.searchsorted(searched, keys, side),
            np.searchsorted(searched, self._index.ends[rows], "right") - 1,
        )

    def intersecting(self) -> int:
        """The candidate count of the whole intersecting window of a
        colocation plan — both families, whichever it expands — counted
        from their bounds, not expanded."""
        searched, ends = self._probes
        keys = self._index._by(0)[1]
        inside = np.searchsorted(keys, ends, "right") - np.searchsorted(keys, searched, "left")
        lo, hi = self._covered("right")
        return int(inside.sum() + (hi - lo + 1).sum())

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
    from the other.  Every predicate fixes which operand starts no later
    (its less-than-order, ``predicate.orders``).  A colocation
    predicate's true pairs intersect: the indexed rows starting inside
    a probe when the probe's operand starts first (equal starts too:
    ``equals``, ``starts``, ``started_by``), else those covering its
    start.  A sequence predicate puts one operand wholly first, so the
    indexed rows start after a probe from that operand and end before a
    probe from the other."""
    probe_first = (
        predicate.enforces_right_first()
        if indexed_is_left
        else predicate.enforces_left_first()
    )
    if predicate.is_colocation:
        return STARTING_WITHIN if probe_first else COVERING_START
    return STARTING_AFTER if probe_first else ENDING_BEFORE


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
