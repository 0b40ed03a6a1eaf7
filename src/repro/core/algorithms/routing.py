"""The map side of every algorithm: one mapper, three routers, a few views.

The paper reduces the map phase of each algorithm to three communication
primitives over a partitioning — *project*, *split*, *replicate*
(Section 3), chosen per side by the Figure-1 operator table — plus, for
every grid, "send the tuple to the consistent cells at its coordinate"
(:class:`CellRouter`).  What differs between RCCIS, the cascade,
All-Replicate and the grids is only what is read off the input record
and what value is shuffled.  Each of those is said once here:

* a **router** owns *routing interval → target keys*, twice:
  ``map_columns(starts, ends, records, terms) -> (key_codes, row_idx,
  counter increments)`` for a whole input, which every job runs, and
  ``targets(interval, record, counters)`` for one record, the paper's
  rule as stated and the reference ``map_columns`` is held to;
  ``key_kind`` names its key codec;
* a **view** owns *what is read and what is shuffled*: an input's
  routing-interval columns, read off its source — a relation, or a
  block an earlier job committed — and the query term they are
  (``routing``), the further query ``terms`` its values carry, and the
  tag codes and payloads of a whole input;
* :class:`RoutedMapper` is the one mapper: the columnar protocol of
  :mod:`repro.mapreduce.task` and, over a :class:`RowView`'s rows, its
  per-record ``map`` delegate to the same two objects, so the two forms
  cannot drift apart per class.

``tests/properties/test_router_parity.py`` holds ``map_columns`` to
``targets`` bit for bit: the same keys in the same record-major order,
the same counter increments, no counter created at zero.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.batch import (
    IndexBlock,
    MapBlock,
    object_column,
    operator_map_columns,
    ranged_targets,
)
from repro.columnar.codec import CellKeyCodec, IntKeyCodec
from repro.core.local import attribute_columns
from repro.core.query import Term
from repro.core.schema import Relation, Row
from repro.intervals.allen import MapOperator
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import SortedColumns
from repro.mapreduce.task import MapContext, Mapper

__all__ = [
    "RoutedMapper",
    "OperatorRouter",
    "FlagRouter",
    "CellRouter",
    "RowMarks",
    "View",
    "RowView",
    "MemberView",
    "FlaggedRowView",
    "RightmostMemberView",
    "BOUND_SIDE",
    "NEW_SIDE",
]

#: Side tags of a cascade step's two inputs: the partial tuples bound so
#: far, and the relation the step joins in.
BOUND_SIDE = "__bound__"
NEW_SIDE = "__new__"


class View:
    """What a mapper reads off an input's source (``columns``) and what
    it shuffles: values tagged ``tag`` — the first element of every
    shuffle value of a one-tag view, what a reducer selects its inputs by
    (:meth:`~repro.columnar.batch.ColumnValues.tag_mask`).  ``routing``
    is the query term the routing interval is (``None``: no one term),
    and ``terms`` those a value carries besides it — ``columns(source,
    term)`` reads one."""

    tag: Hashable
    routing: Optional[Term] = None
    terms: Tuple[Term, ...] = ()

    def route(self, tag: Hashable) -> Optional[Term]:
        return self.routing

    def tag_codes(self, records: Sequence[Any]):
        """``(per-record int16 tag codes, tag table)`` of an input."""
        return np.zeros(len(records), dtype=np.int16), (self.tag,)

    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        """The payloads of an object column of records, as one: the
        second member of each record's shuffle value."""
        return object_column([self.value_of(r)[1] for r in records.tolist()])


class RowView(View):
    """A base relation's row, shuffled as ``(label, row)`` — or, under a
    ``side`` tag, as ``(side, (label, row))``, which is how a cascade
    step's reducer tells the new relation from the bound side.  It
    carries the relation's ``also`` attributes as further terms.  The
    label is the relation's name unless ``relation`` says otherwise.

    It is the one view with a per-record form, ``interval_of`` /
    ``value_of``: the reference ``RoutedMapper.map`` states each router's
    rule in (``tests/properties/test_router_parity.py``), which the
    benchmark's mapper probe calls."""

    def __init__(
        self, label: str, attribute: str, side: Optional[str] = None,
        also: Sequence[str] = (), relation: Optional[str] = None,
    ) -> None:
        self.label = label
        self.attribute = attribute
        self.side = side
        self.tag = label if side is None else side
        self.routing = Term(relation or label, attribute)
        self.terms = tuple(Term(relation or label, name) for name in also)

    def columns(self, source: Any, term: Optional[Term] = None) -> SortedColumns:
        """The relation's own columns — or, for rows no relation stands
        behind (an input that names no source), read one by one."""
        attribute = self.attribute if term is None else term.attribute
        if isinstance(source, Relation):
            return source.columns(attribute)
        return attribute_columns(source, attribute)

    def interval_of(self, record: Row) -> Interval:
        return record.interval(self.attribute)

    def value_of(self, record: Row) -> Any:
        value = (self.label, record)
        return value if self.side is None else (self.side, value)

    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        return records if self.side is None else super().payloads_of(records)


class MemberView(View):
    """The partial tuples of a cascade step's bound side, a block of
    them, read at one bound member's interval and shuffled under
    ``BOUND_SIDE``; ``terms`` are its other members' terms."""

    tag = BOUND_SIDE

    def __init__(self, member: str, attribute: str, terms: Sequence[Term] = ()) -> None:
        self.routing = Term(member, attribute)
        self.terms = tuple(terms)

    def columns(self, source: IndexBlock, term: Optional[Term] = None) -> SortedColumns:
        return source.term_columns(self.routing if term is None else term)


class FlaggedRowView(View):
    """RCCIS's cycle-1 output, a flag block of ``(relation, row,
    flagged)`` records, shuffled under each record's relation.  One input
    file carries every relation, so the tag is per record; the block's
    relation codes are the tag codes."""

    def __init__(self, attributes: Mapping[str, str]) -> None:
        #: each relation's attribute: what a block's ``columns`` takes.
        self.attribute = dict(attributes)

    def columns(self, source: IndexBlock, term: Optional[Term] = None) -> SortedColumns:
        return source.columns(self.attribute)

    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        # A block's row column holds the payloads already.
        return records

    def route(self, tag: str) -> Term:
        return Term(tag, self.attribute[tag])

    def tag_codes(self, records: IndexBlock):
        return records.codes.astype(np.int16), records.names


class RightmostMemberView(View):
    """One component's partial tuples (FCTS phase 2), a block of them,
    read at the member interval that starts right-most — the first such
    member in the block's order, no one term — and shuffled under
    ``dim``, carrying its ``members``' terms."""

    def __init__(
        self, attributes: Mapping[str, str], dim: int, members: Sequence[str] = ()
    ) -> None:
        self.attributes = dict(attributes)
        self.tag = dim
        self.terms = tuple(Term(name, self.attributes[name]) for name in members)

    def columns(self, source: IndexBlock, term: Optional[Term] = None) -> SortedColumns:
        if term is not None:
            return source.term_columns(term)
        members = [
            source.term_columns(Term(name, self.attributes[name])) for name in source.names
        ]
        starts = np.stack([member.starts for member in members])
        ends = np.stack([member.ends for member in members])
        rightmost, rows = np.argmax(starts, axis=0), np.arange(len(source))
        return SortedColumns(starts[rightmost, rows], ends[rightmost, rows])


class RowMarks:
    """One mark per row of a base relation: the rows whose rids a flag
    or mark cycle committed, as a boolean column in row order.  A router
    reads it as it reads its input — :meth:`column` for a whole input
    (the relation's rows, or them read through a permutation, the
    ``order`` of a map task mapping in start order), or called on one
    row, by its rid."""

    def __init__(self, relation: Relation, rids: Iterable[Any]) -> None:
        self.rids = frozenset(rids)
        column = relation.rid_column()
        if column.dtype == np.int64:
            wanted = np.fromiter(self.rids, dtype=np.int64, count=len(self.rids))
            self.marks = np.isin(column, wanted)
        else:
            self.marks = np.fromiter(
                (rid in self.rids for rid in relation.rid_objects().tolist()),
                dtype=bool, count=len(relation),
            )

    def __call__(self, row: Row) -> bool:
        return row.rid in self.rids

    def column(self, records: Sequence[Any]) -> np.ndarray:
        order = getattr(records, "order", None)
        return self.marks if order is None else self.marks[order]


def _marks(mark: Callable[[Any], bool], records: Sequence[Any]) -> np.ndarray:
    """A router's marks of a whole input: a :class:`RowMarks` column, or
    any other mark read record by record."""
    if isinstance(mark, RowMarks):
        return mark.column(records)
    return np.fromiter(map(mark, records), dtype=bool, count=len(records))


class _PartitionRouter:
    """A router whose targets are partition indices.  ``prefix`` keys
    them as ``(prefix, index)`` instead — the grid algorithms' flag and
    mark cycles run every component's 1-dimensional partitioning in one
    job — which is a pair of small ints: the cell codec packs it."""

    def __init__(self, partitioning: Partitioning, prefix: Optional[int] = None) -> None:
        self.partitioning = partitioning
        self.prefix = prefix
        self.key_kind = IntKeyCodec.kind if prefix is None else CellKeyCodec.kind

    def _keys(self, indices):
        """The per-record form's keys for partition ``indices``."""
        if self.prefix is None:
            return indices
        return [(self.prefix, index) for index in indices]

    def _codes(self, indices: np.ndarray) -> np.ndarray:
        """The columnar form's key codes for partition ``indices``."""
        if self.prefix is None:
            return indices
        return indices | np.int64(CellKeyCodec.encode_cell((self.prefix, 0)))


class OperatorRouter(_PartitionRouter):
    """One side's Figure-1 operator: project the interval onto its start
    partition, split it over every partition it meets, or replicate it
    from its start partition onward (Section 3)."""

    def __init__(
        self,
        partitioning: Partitioning,
        operator: MapOperator,
        prefix: Optional[int] = None,
    ) -> None:
        super().__init__(partitioning, prefix)
        self.operator = operator

    def targets(self, interval, record, counters):
        if self.operator is MapOperator.PROJECT:
            indices = (self.partitioning.project(interval),)
        elif self.operator is MapOperator.SPLIT:
            indices = self.partitioning.split(interval)
        else:
            indices = self.partitioning.replicate(interval)
            counters.increment("join", "replicated_intervals")
            counters.increment("join", "replicated_pairs", len(indices))
        return self._keys(indices)

    def map_columns(self, starts, ends, records, terms=None):
        indices, row_idx, counters = operator_map_columns(
            self.partitioning, self.operator, starts, ends
        )
        return self._codes(indices), row_idx, counters


class FlagRouter(_PartitionRouter):
    """Replicate the rows a flag cycle marked, project the rest (RCCIS
    cycle 2, Section 6.1).  ``flagged(record)`` reads the mark;
    ``count_pairs`` says whether the replicated pairs count towards
    ``join:replicated_pairs``."""

    def __init__(
        self,
        partitioning: Partitioning,
        flagged: Callable[[Any], bool],
        prefix: Optional[int] = None,
        count_pairs: bool = True,
    ) -> None:
        super().__init__(partitioning, prefix)
        self.flagged = flagged
        self.count_pairs = count_pairs

    def targets(self, interval, record, counters):
        if self.flagged(record):
            indices = self.partitioning.replicate(interval)
            if self.count_pairs:
                counters.increment("join", "replicated_pairs", len(indices))
        else:
            indices = (self.partitioning.project(interval),)
        return self._keys(indices)

    def map_columns(self, starts, ends, records, terms=None):
        if isinstance(records, IndexBlock):
            flags = records.flagged
        else:
            flags = _marks(self.flagged, records)
        lo = self.partitioning.locate_array(starts)
        hi = np.where(flags, np.int64(len(self.partitioning) - 1), lo).astype(np.int64)
        indices, row_idx = ranged_targets(lo, hi)
        counters: Dict[Tuple[str, str], int] = {}
        replicated = int((hi[flags] - lo[flags] + 1).sum())
        if replicated and self.count_pairs:
            counters[("join", "replicated_pairs")] = replicated
        return self._codes(indices), row_idx, counters


class CellRouter:
    """Send a row to the consistent cells of a reducer grid at its
    coordinate: the fan-out of All-Matrix, All-Seq-Matrix, PASM and
    Gen-Matrix (Sections 7.1-9.1) and of the cascade's sequence steps.

    The coordinate on grid dimension ``dim`` is the routing interval's
    start partition; a row ``flagged`` marks widens it to the upper tail
    (counted in ``join:replicated_pairs``), a row ``keep`` rejects is
    dropped (``join:pruned_rows``).  The row goes to the cells of
    ``cells`` in that coordinate range, coordinate by coordinate, each
    coordinate's in ``cells`` order.

    ``also`` holds a multi-attribute relation's further terms,
    ``(dim, partitioning, attribute, flagged)``: the row goes to the
    cells inside every term's range, intersected per dimension (Section
    9.1).  ``map_columns`` reads a further term's starts off the
    mapper's term columns, by attribute.
    """

    key_kind = CellKeyCodec.kind

    def __init__(
        self,
        partitioning: Partitioning,
        dim: int,
        cells: Sequence[Tuple[int, ...]],
        flagged: Optional[Callable[[Any], bool]] = None,
        keep: Optional[Callable[[Any], bool]] = None,
        also: Sequence[Tuple[int, Partitioning, str, Callable[[Any], bool]]] = (),
    ) -> None:
        self.partitioning = partitioning
        self.dim = dim
        self.flagged = flagged
        self.keep = keep
        self.also = tuple(also)
        #: the cells stably sorted by coordinate on ``dim``: a coordinate
        #: range ``lo..hi``'s are ``cells[offsets[lo] : offsets[hi + 1]]``.
        self.cells = sorted(cells, key=lambda cell: cell[dim])
        coordinates = np.array([cell[dim] for cell in self.cells], dtype=np.int64)
        counts = np.bincount(coordinates, minlength=len(partitioning))
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        self.codes = np.array(list(map(CellKeyCodec.encode_cell, self.cells)), dtype=np.int64)

    def targets(self, interval, record, counters):
        if self.keep is not None and not self.keep(record):
            counters.increment("join", "pruned_rows")
            return ()
        terms = [(self.dim, self.partitioning, interval, self.flagged)] + [
            (dim, partitioning, record.interval(attribute), flagged)
            for dim, partitioning, attribute, flagged in self.also
        ]
        ranges: Dict[int, Tuple[int, int]] = {}
        replicated = False
        for dim, partitioning, term_interval, flagged in terms:
            q, last = partitioning.project(term_interval), len(partitioning) - 1
            tail = flagged is not None and flagged(record)
            replicated = replicated or tail
            a, b = ranges.get(dim, (q, last))
            ranges[dim] = (max(a, q), min(b, last if tail else q))
        lo, hi = ranges.pop(self.dim)
        cells = self.cells[self.offsets[lo] : self.offsets[hi + 1]]
        if ranges:
            cells = [
                cell for cell in cells
                if all(a <= cell[d] <= b for d, (a, b) in ranges.items())
            ]
        if replicated and cells:
            counters.increment("join", "replicated_pairs", len(cells))
        return cells

    def map_columns(self, starts, ends, records, terms=None):
        n = len(starts)

        def marks(mark, default):
            return np.full(n, default) if mark is None else _marks(mark, records)

        attributes = [term.attribute for term in terms[0]] if self.also else []
        columns = [(self.dim, self.partitioning, starts, self.flagged)] + [
            (dim, partitioning, terms[1][:, attributes.index(attribute)], flagged)
            for dim, partitioning, attribute, flagged in self.also
        ]
        # Per dimension, each row's coordinate range: every term on it
        # pins it (to the upper tail where flagged), intersected.
        ranges: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        replicated = np.zeros(n, dtype=bool)
        for dim, partitioning, term_starts, flagged in columns:
            lo, tail = partitioning.locate_array(term_starts), marks(flagged, False)
            hi = np.where(tail, np.int64(len(partitioning) - 1), lo)
            replicated |= tail
            a, b = ranges.get(dim, (lo, hi))
            ranges[dim] = (np.maximum(a, lo), np.minimum(b, hi))
        rows = np.flatnonzero(marks(self.keep, True))
        lo, hi = (bound[rows] for bound in ranges.pop(self.dim))
        first = self.offsets[lo]
        # Row i's cells are the table slots first[i] .. stop[i] - 1,
        # inside its range on every other dimension.
        slots, index = ranged_targets(first, np.maximum(self.offsets[hi + 1], first) - 1)
        for dim, (lo, hi) in ranges.items():
            coordinate = np.array([cell[dim] for cell in self.cells], dtype=np.int64)[slots]
            inside = (lo[rows][index] <= coordinate) & (coordinate <= hi[rows][index])
            slots, index = slots[inside], index[inside]
        counters = {
            ("join", "pruned_rows"): n - len(rows),
            ("join", "replicated_pairs"): int(np.count_nonzero(replicated[rows][index])),
        }
        return self.codes[slots], rows[index], {k: v for k, v in counters.items() if v}


class RoutedMapper(Mapper):
    """The one mapper of :mod:`repro.core.algorithms`: every record goes
    to ``router``'s targets for the interval ``view`` reads off it,
    carrying the value ``view`` shuffles.  The :class:`Mapper` protocol
    (see :mod:`repro.mapreduce.task`) is what every job runs.  ``map``,
    its per-record form, is run by no job: it stays as the reference
    ``tests/properties/test_router_parity.py`` holds ``map_columns`` to,
    and the benchmark's mapper probe (``benchmarks/e2e/layers.py``)
    calls it."""

    def __init__(self, view: View, router: Any) -> None:
        self.view = view
        self.router = router
        self.columnar_key_kind: str = router.key_kind

    def map(self, record: Any, context: MapContext) -> None:
        view = self.view
        keys = self.router.targets(view.interval_of(record), record, context.counters)
        value = view.value_of(record)
        for key in keys:
            context.emit(key, value)

    def encode_intervals(self, records, source=None):
        """An input's routing-interval columns, as the view reads them
        off its source: a relation's own, or a block's gathered by row
        index."""
        columns = self.view.columns(records if source is None else source)
        return columns.starts, columns.ends

    def encode_terms(self, records, source=None):
        """The further terms the view's values carry, ``(terms, starts,
        ends)`` with one column per term — read like the routing
        interval — or ``None`` when they carry none."""
        terms = self.view.terms
        if not terms:
            return None
        source = records if source is None else source
        columns = [self.view.columns(source, term) for term in terms]
        return (
            terms,
            np.stack([column.starts for column in columns], axis=1),
            np.stack([column.ends for column in columns], axis=1),
        )

    def start_order(self, records, source=None):
        """A base relation's memoised by-start order of the routing
        interval (``None`` when its rows are in it already); a block's
        records are read as they are."""
        if isinstance(source, Relation):
            return self.view.columns(source).start_order()
        return None

    def map_columns(self, starts, ends, records, terms=None) -> MapBlock:
        key_codes, row_idx, counters = self.router.map_columns(starts, ends, records, terms)
        tag_codes, tags = self.view.tag_codes(records)
        routes = [self.view.route(tag) for tag in tags]
        return MapBlock(key_codes, row_idx, tag_codes[row_idx], tags, counters, routes)

    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        return self.view.payloads_of(records)
