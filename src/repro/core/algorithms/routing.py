"""The map side of every algorithm: one mapper, three routers, a few views.

The paper reduces the map phase of each algorithm to three communication
primitives over a partitioning — *project*, *split*, *replicate*
(Section 3), chosen per side by the Figure-1 operator table — plus, for
the matrix algorithms, "send the tuple to every consistent cell pinned
at its coordinate".  What differs between RCCIS, the cascade,
All-Replicate and the grids is only what is read off the input record
and what value is shuffled.  Each of those is said once here:

* a **router** owns *routing interval → target keys*, both planes side
  by side: ``targets(interval, record, counters)`` for one record (a
  records-plane job, the exact prediction tier, the parity suite's
  reference arm) and ``map_columns(starts, ends, records) -> (key_codes,
  row_idx, counter increments)`` for a whole input; ``key_kind`` names
  its key codec (``None``: it has none);
* a **view** owns *what is read and what is shuffled*: a record's
  routing interval, its shuffle value ``(tag, payload)`` and, for a
  whole input, the tag codes and the payload column;
* :class:`RoutedMapper` is the one mapper: ``map`` and the columnar
  protocol of :mod:`repro.mapreduce.task` delegate to the same two
  objects, so the two forms of a map side cannot drift apart per class.

``tests/properties/test_router_parity.py`` holds ``targets`` and
``map_columns`` to bit-parity: the same keys in the same record-major
order, the same counter increments, no counter created at zero.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlanningError
from repro.columnar.batch import (
    MapBlock,
    interval_columns,
    object_column,
    operator_map_columns,
    ranged_targets,
)
from repro.columnar.codec import CellKeyCodec, IntKeyCodec
from repro.core.schema import Row
from repro.intervals.allen import MapOperator
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.task import MapContext, Mapper

__all__ = [
    "RoutedMapper",
    "OperatorRouter",
    "FlagRouter",
    "PinnedCellRouter",
    "View",
    "RowView",
    "MemberView",
    "LiftedRowView",
    "FlaggedRowView",
    "RightmostMemberView",
    "BOUND_SIDE",
    "NEW_SIDE",
    "PartialTuple",
]

#: Side tags of a cascade step's two inputs: the partial tuples bound so
#: far, and the relation the step joins in.
BOUND_SIDE = "__bound__"
NEW_SIDE = "__new__"

#: A partial tuple: ``((relation, row), ...)`` for the bound relations.
PartialTuple = Tuple[Tuple[str, Row], ...]


class View:
    """What a mapper reads off an input record (``interval_of``) and what
    it shuffles (``value_of``): a ``(tag, payload)`` pair.  ``tag`` is
    the first element of every shuffle value of a one-tag view — what a
    columnar reducer selects its inputs by
    (:meth:`~repro.columnar.batch.ColumnValues.tag_mask`); the payloads
    are what it rebuilds its outputs from
    (:meth:`~repro.columnar.batch.PayloadStore.take`)."""

    tag: Hashable

    def tag_codes(self, records: Sequence[Any]):
        """``(per-record int16 tag codes, tag table)`` of an input."""
        return np.zeros(len(records), dtype=np.int16), (self.tag,)

    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        """The payloads of an object column of records, as one: the
        column itself where a record is its own payload."""
        return object_column([self.value_of(r)[1] for r in records.tolist()])


class RowView(View):
    """A base relation's row, shuffled as ``(label, row)`` — or, under a
    ``side`` tag, as ``(side, (label, row))``, which is how a cascade
    step's reducer tells the new relation from the bound side."""

    def __init__(self, label: str, attribute: str, side: Optional[str] = None) -> None:
        self.label = label
        self.attribute = attribute
        self.side = side
        self.tag = label if side is None else side

    def interval_of(self, record: Row) -> Interval:
        return record.interval(self.attribute)

    def value_of(self, record: Row) -> Any:
        value = (self.label, record)
        return value if self.side is None else (self.side, value)

    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        return records if self.side is None else super().payloads_of(records)


class MemberView(View):
    """A partial tuple read at one bound member's interval, shuffled as
    ``(BOUND_SIDE, partial)``."""

    tag = BOUND_SIDE

    def __init__(self, member: str, attribute: str) -> None:
        self.member = member
        self.attribute = attribute

    def interval_of(self, record: PartialTuple) -> Interval:
        for relation, row in record:
            if relation == self.member:
                return row.interval(self.attribute)
        raise PlanningError(f"partial tuple missing member {self.member!r}")

    def value_of(self, record: PartialTuple) -> Any:
        return (BOUND_SIDE, record)

    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        return records


class LiftedRowView(MemberView):
    """Step 0 of a cascade: the first relation's base rows stand in for
    the partial tuples, each lifted to the one-member partial
    ``((member, row),)``."""

    def interval_of(self, record: Row) -> Interval:
        return record.interval(self.attribute)

    def value_of(self, record: Row) -> Any:
        return (BOUND_SIDE, ((self.member, record),))

    payloads_of = View.payloads_of


class FlaggedRowView(View):
    """RCCIS's cycle-1 output record ``(relation, row, flagged)``,
    shuffled as ``(relation, row)``.  One input file carries every
    relation, so the tag is per record."""

    def __init__(self, attributes: Mapping[str, str]) -> None:
        self.attributes = dict(attributes)

    def interval_of(self, record: Tuple[str, Row, bool]) -> Interval:
        relation, row, _flagged = record
        return row.interval(self.attributes[relation])

    def value_of(self, record: Tuple[str, Row, bool]) -> Any:
        return (record[0], record[1])

    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        return object_column([record[1] for record in records.tolist()])

    def flagged(self, record: Tuple[str, Row, bool]) -> bool:
        """Whether cycle 1 marked the row for replication."""
        return record[2]

    def tag_codes(self, records):
        relations = [record[0] for record in records]
        tags = list(dict.fromkeys(relations))  # first-appearance order
        code_of = {tag: code for code, tag in enumerate(tags)}
        codes = np.fromiter(map(code_of.__getitem__, relations), np.int16, len(relations))
        return codes, tags


class RightmostMemberView(View):
    """One component's materialised partial tuple (FCTS phase 2), read at
    the member interval that starts right-most and shuffled as
    ``(dim, partial)``."""

    def __init__(self, attributes: Mapping[str, str], dim: int) -> None:
        self.attributes = dict(attributes)
        self.tag = dim

    def interval_of(self, record: PartialTuple) -> Interval:
        return max(
            (row.interval(self.attributes[name]) for name, row in record),
            key=lambda interval: interval.start,
        )

    def value_of(self, record: PartialTuple) -> Any:
        return (self.tag, record)


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
        """The records form's keys for partition ``indices``."""
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

    def map_columns(self, starts, ends, records):
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

    def map_columns(self, starts, ends, records):
        flags = np.fromiter(map(self.flagged, records), dtype=bool, count=len(records))
        lo = self.partitioning.locate_array(starts)
        hi = np.where(flags, np.int64(len(self.partitioning) - 1), lo).astype(np.int64)
        indices, row_idx = ranged_targets(lo, hi)
        counters: Dict[Tuple[str, str], int] = {}
        replicated = int((hi[flags] - lo[flags] + 1).sum())
        if replicated and self.count_pairs:
            counters[("join", "replicated_pairs")] = replicated
        return self._codes(indices), row_idx, counters


class PinnedCellRouter:
    """Project onto one grid dimension, then fan out to every consistent
    cell pinned at that coordinate — the hypercube-slice routing of the
    matrix algorithms (Sections 7.1/8.1).  A coordinate's cells keep the
    order ``cells`` lists them in."""

    def __init__(
        self,
        partitioning: Partitioning,
        dim: int,
        cells: Sequence[Tuple[int, ...]],
    ) -> None:
        self.partitioning = partitioning
        self.by_coord: Dict[int, List[Tuple[int, ...]]] = defaultdict(list)
        for cell in cells:
            self.by_coord[cell[dim]].append(cell)
        # The cell codec packs two coordinates; a grid of any other
        # dimensionality has no codec.
        two_d = all(len(cell) == 2 for cell in cells)
        self.key_kind: Optional[str] = CellKeyCodec.kind if two_d else None
        self._tables: Optional[Tuple[np.ndarray, ...]] = None

    def targets(self, interval, record, counters):
        return self.by_coord.get(self.partitioning.project(interval), ())

    def _cell_tables(self) -> Tuple[np.ndarray, ...]:
        """Dense per-coordinate fan-out tables ``(codes, counts,
        offsets)``: coordinate ``q``'s cells, in ``by_coord`` order, are
        ``codes[offsets[q] : offsets[q] + counts[q]]`` as packed int64
        cell codes."""
        n = len(self.partitioning)
        counts = np.zeros(n, dtype=np.int64)
        offsets = np.zeros(n, dtype=np.int64)
        codes: List[int] = []
        for coord in range(n):
            cells = self.by_coord.get(coord, ())
            offsets[coord] = len(codes)
            counts[coord] = len(cells)
            codes.extend(CellKeyCodec.encode_cell(cell) for cell in cells)
        return np.asarray(codes, dtype=np.int64), counts, offsets

    def map_columns(self, starts, ends, records):
        if self._tables is None:
            self._tables = self._cell_tables()
        codes, counts, offsets = self._tables
        q = self.partitioning.locate_array(starts)
        # Record i's cells are the table slots offsets[q[i]] onward.
        slots, row_idx = ranged_targets(offsets[q], offsets[q] + counts[q] - 1)
        return codes[slots], row_idx, {}


class RoutedMapper(Mapper):
    """The one mapper of :mod:`repro.core.algorithms`: every record goes
    to ``router``'s targets for the interval ``view`` reads off it,
    carrying the value ``view`` shuffles.  The columnar protocol (see
    :mod:`repro.mapreduce.task`) is the same delegation; a router
    without a key codec makes the mapper report itself not ready."""

    def __init__(self, view: View, router: Any) -> None:
        self.view = view
        self.router = router
        self.columnar_key_kind: Optional[str] = router.key_kind

    def map(self, record: Any, context: MapContext) -> None:
        view = self.view
        keys = self.router.targets(view.interval_of(record), record, context.counters)
        value = view.value_of(record)
        for key in keys:
            context.emit(key, value)

    def columnar_ready(self) -> bool:
        return self.columnar_key_kind is not None

    def encode_intervals(self, records, source=None):
        """An input's routing-interval columns: its ``source``
        relation's own if it names one, else read off the records."""
        if source is None:
            return interval_columns(records, self.view.interval_of)
        columns = source.columns(self.view.attribute)
        if columns.starts.dtype == object or columns.ends.dtype == object:
            return None
        return columns.starts, columns.ends

    def map_columns(self, starts, ends, records) -> MapBlock:
        key_codes, row_idx, counters = self.router.map_columns(starts, ends, records)
        tag_codes, tags = self.view.tag_codes(records)
        return MapBlock(key_codes, row_idx, tag_codes[row_idx], tags, counters)

    def value_of(self, record: Any) -> Any:
        return self.view.value_of(record)

    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        return self.view.payloads_of(records)
