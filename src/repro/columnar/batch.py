"""Struct-of-arrays batches for the columnar data plane.

The columnar plane never ships row objects through the shuffle.  A map
task emits a :class:`MapBlock` — parallel numpy columns of int64 key
codes and row indices — and the job accumulates them into one
:class:`ColumnarPairs` batch, tagging each emitted pair with a *payload
id* (``gid``)::

    gid = (map_task_index << 32) | row_index

The raw input records stay on the parent in the job's
:class:`PayloadStore`; reducer kernels work on :class:`ColumnValues` —
the sorted column slices of one key group — and return gid blocks that
the framework formats once per task, a column of gids at a time: a join
into an :class:`IndexBlock` of row indices into the relations, which
the next cycle reads as columns, other reducers into records through
the store's payloads.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence as SequenceABC
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import MapReduceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.codec import KeyCodec
    from repro.intervals.partitioning import Partitioning

__all__ = [
    "MapBlock",
    "ColumnarPairs",
    "ColumnValues",
    "IndexBlock",
    "Terms",
    "PayloadStore",
    "endpoint_column",
    "object_column",
    "operator_map_columns",
    "ranged_targets",
]

_MASK32 = 0xFFFFFFFF
#: ``Row`` references per chunk in which a block's tuples are built: a
#: chunk's taken columns, tuples and the rows they touch stay in cache.
_TUPLE_REFERENCES = 1 << 12


def _tuple_chunk(arity: int) -> int:
    """Records per chunk of :meth:`IndexBlock.tuples` for ``arity``
    members a record."""
    return max(1, _TUPLE_REFERENCES // arity)


def ranged_targets(
    lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised emission of inclusive index ranges ``lo[i]..hi[i]``.

    Returns ``(keys, row_idx)`` in record-major order — record ``i``'s
    targets appear consecutively and ascending, exactly matching the
    routers' per-record ``for index in range(...)`` loops (``targets``).
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    lengths = hi - lo + 1
    total = int(lengths.sum())
    row_idx = np.repeat(np.arange(len(lo), dtype=np.int64), lengths)
    offsets = np.cumsum(lengths) - lengths
    intra = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
    return np.repeat(lo, lengths) + intra, row_idx


class MapBlock:
    """One columnar map task's emission: parallel per-pair columns."""

    __slots__ = ("key_codes", "row_idx", "tag_codes", "tags", "counters", "routes")

    def __init__(
        self,
        key_codes: np.ndarray,
        row_idx: np.ndarray,
        tag_codes: np.ndarray,
        tags: Tuple[str, ...],
        counters: Optional[Dict[Tuple[str, str], int]] = None,
        routes: Optional[Sequence[Any]] = None,
    ) -> None:
        self.key_codes = np.asarray(key_codes, dtype=np.int64)
        self.row_idx = np.asarray(row_idx, dtype=np.int64)
        self.tag_codes = np.asarray(tag_codes, dtype=np.int16)
        self.tags = tuple(tags)
        #: user-counter increments, ``(group, name) -> amount``; only
        #: non-zero amounts may appear (a zero entry would create a
        #: counter key the per-record ``targets`` never creates).
        self.counters = dict(counters or {})
        #: per tag, the query term its values are routed by (``None``:
        #: no one term).
        self.routes = tuple(routes) if routes is not None else (None,) * len(self.tags)

    def __len__(self) -> int:
        return len(self.key_codes)

    @classmethod
    def single_tag(
        cls,
        key_codes: np.ndarray,
        row_idx: np.ndarray,
        tag: str,
        counters: Optional[Dict[Tuple[str, str], int]] = None,
    ) -> "MapBlock":
        codes = np.zeros(len(key_codes), dtype=np.int16)
        return cls(key_codes, row_idx, codes, (tag,), counters)


def object_column(items: Sequence[Any]) -> np.ndarray:
    """``items`` as a 1-D object array to ``take`` from — tuples stay
    whole items, not a second axis."""
    return np.fromiter(items, dtype=object, count=len(items))


def endpoint_column(values: List[Any]) -> np.ndarray:
    """Interval endpoints as a float64 column — or, when some value does
    not survive the conversion (an integer beyond 2**53, say), as an
    ``object`` column of the exact Python numbers."""
    column = np.array(values, dtype=np.float64)
    # Python compares an int with a float exactly, so this is a
    # round-trip check, not a second rounding.
    if column.tolist() != values:
        column = np.array(values, dtype=object)
    return column


class Terms(NamedTuple):
    """The query terms shuffled values carry besides their routing
    interval: one row per value, one column of ``starts`` / ``ends`` per
    slot.  Which term a slot holds is its tag's layout (see
    :class:`ColumnValues`)."""

    starts: np.ndarray
    ends: np.ndarray

    def take(self, rows) -> "Terms":
        return Terms(self.starts[rows], self.ends[rows])


def operator_map_columns(
    partitioning: "Partitioning",
    operator,
    starts: np.ndarray,
    ends: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Dict[Tuple[str, str], int]]:
    """Vectorised Project / Split / Replicate over encoded intervals.

    Returns ``(key_codes, row_idx, counter_increments)``: the columnar
    form of :class:`~repro.core.algorithms.routing.OperatorRouter`,
    reproducing its per-record ``targets()`` (and replication counters)
    exactly.
    """
    from repro.intervals.allen import MapOperator

    n = len(starts)
    counters: Dict[Tuple[str, str], int] = {}
    lo = partitioning.locate_array(starts)
    if operator is MapOperator.PROJECT:
        return lo, np.arange(n, dtype=np.int64), counters
    if operator is MapOperator.SPLIT:
        hi = partitioning.locate_array(ends)
    else:  # REPLICATE: start partition through the end of time
        hi = np.full(n, len(partitioning) - 1, dtype=np.int64)
    keys, row_idx = ranged_targets(lo, hi)
    if operator is not MapOperator.SPLIT and n:
        counters[("join", "replicated_intervals")] = n
        counters[("join", "replicated_pairs")] = len(keys)
    return keys, row_idx, counters


class ColumnarPairs:
    """The job-level intermediate batch: one row per emitted pair.

    Columns: ``key_codes`` (int64), ``gids`` (int64 payload ids),
    ``starts``/``ends`` (routing-interval endpoints, float64 or
    ``object`` as the inputs encoded them) and ``tag_codes`` (int16 into
    the job's tag table) — plus, when an input's values carry further
    query terms, their :class:`Terms`.  Blocks append in map-task order,
    so row order equals the per-record ``map``'s pair-stream order.
    """

    def __init__(self, codec: "KeyCodec") -> None:
        self.codec = codec
        self._tags: List[str] = []
        #: per tag code, the terms its values carry (see ColumnValues).
        self._layouts: List[Tuple[Any, ...]] = []
        self._blocks: List[Tuple[np.ndarray, ...]] = []
        self._columns: Optional[Tuple[np.ndarray, ...]] = None
        self._further: Optional[Terms] = None
        self._loads: Optional[Dict[Hashable, int]] = None
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def tags(self) -> Tuple[str, ...]:
        return tuple(self._tags)

    @property
    def layouts(self) -> Tuple[Tuple[Any, ...], ...]:
        return tuple(self._layouts)

    def intern_tag(self, tag: str, layout: Tuple[Any, ...] = (None,)) -> int:
        """``tag``'s code; every input shuffles it with one ``layout``."""
        if tag not in self._tags:
            self._tags.append(tag)
            self._layouts.append(tuple(layout))
        code = self._tags.index(tag)
        if self._layouts[code] != tuple(layout):
            raise MapReduceError(f"tag {tag!r} is shuffled with two layouts")
        return code

    def append_block(
        self,
        block: MapBlock,
        segment: int,
        starts: np.ndarray,
        ends: np.ndarray,
        terms: Optional[Tuple[Tuple[Any, ...], np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Absorb one map task's emission.

        ``starts``/``ends`` are the task's *per-record* routing-interval
        columns and ``terms``, if its values carry further query terms,
        ``(terms, starts, ends)`` with one column per term; per-pair
        endpoints are gathered through the block's ``row_idx``.
        """
        if self._columns is not None:  # pragma: no cover - defensive
            raise RuntimeError("batch already finalised")
        further = terms[0] if terms is not None else ()
        layouts = [(route, *further) for route in block.routes]
        remap = np.asarray(list(map(self.intern_tag, block.tags, layouts)), dtype=np.int16)
        tag_codes = (
            remap[block.tag_codes] if len(remap) else block.tag_codes
        )
        gids = (np.int64(segment) << np.int64(32)) | block.row_idx
        more = (np.empty((len(starts), 0)),) * 2 if terms is None else terms[1:]
        self._blocks.append((
            block.key_codes, gids,
            *(np.asarray(column)[block.row_idx] for column in (starts, ends, *more)),
            tag_codes,
        ))
        self._length += len(block)

    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(key_codes, gids, starts, ends, tag_codes)``, concatenated."""
        if self._columns is None:
            blocks = self._blocks or [(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0), np.empty(0), np.empty((0, 0)), np.empty((0, 0)),
                np.empty(0, dtype=np.int16),
            )]
            width = max(block[4].shape[1] for block in blocks)

            def padded(column):
                # Slots a tag's layout does not name are never read.
                if column.ndim == 1:
                    return column
                return np.pad(column, ((0, 0), (0, width - column.shape[1])))

            *columns, term_starts, term_ends, tag_codes = (
                np.concatenate([padded(block[i]) for block in blocks])
                for i in range(7)
            )
            self._columns = (*columns, tag_codes)
            if width:
                self._further = Terms(term_starts, term_ends)
            self._blocks = []
        return self._columns

    def terms(self) -> Optional[Terms]:
        """The further terms of every row, or ``None`` when no input's
        values carry any."""
        self.columns()
        return self._further

    def key_groups(self) -> Tuple[np.ndarray, np.ndarray, List[Hashable]]:
        """``(order, boundaries, keys)``: the stable order that clusters
        equal key codes, emission order kept within a key; where each
        key's run starts in it, then the length; and the keys, decoded,
        in ascending code order.  The one sort of the codes: it leaves
        :meth:`logical_loads` behind too."""
        key_codes = self.columns()[0]
        # Grouping only needs *an* order over the codes, not the codes
        # themselves: when the codec can recode the live range into 16
        # bits (monotone, see KeyCodec.compact_codes) the stable sort
        # becomes a radix sort, several times faster than
        # comparison-sorting int64.
        compact = self.codec.compact_codes(key_codes)
        order = np.argsort(key_codes if compact is None else compact, kind="stable")
        sorted_codes = key_codes[order]
        # Ascending (compact recodings are monotone), so the boundaries
        # are a neighbour-difference scan — cheaper than np.unique,
        # which would sort again.
        changed = np.empty(len(sorted_codes), dtype=bool)
        changed[:1] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=changed[1:])
        first = np.flatnonzero(changed)
        keys = [self.codec.decode(code) for code in sorted_codes[first].tolist()]
        boundaries = np.append(first, len(sorted_codes))
        self._loads = dict(zip(keys, np.diff(boundaries).tolist()))
        return order, boundaries, keys

    def logical_loads(self) -> Dict[Hashable, int]:
        """Pairs per distinct key, decoded to native Python keys, in
        ascending code order — read off :meth:`key_groups`' boundaries."""
        if self._loads is None:
            self.key_groups()
        return self._loads


class ColumnValues:
    """One key group's values as column slices: ``starts`` / ``ends``
    are their routing intervals and ``terms``, if they carry any, their
    further query terms.  ``layouts[c]`` names the terms a value with tag
    code ``c`` carries: its routing term (``None``: no one term), then
    each slot's.  ``store`` is ``None`` in a pool worker."""

    __slots__ = (
        "key", "gids", "starts", "ends", "tag_codes", "tags", "store", "terms",
        "layouts",
    )

    def __init__(
        self,
        key: Hashable,
        gids: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        tag_codes: np.ndarray,
        tags: Tuple[str, ...],
        store: Any,
        terms: Optional[Terms] = None,
        layouts: Tuple[Tuple[Any, ...], ...] = (),
    ) -> None:
        self.key = key
        self.gids = gids
        self.starts = starts
        self.ends = ends
        self.tag_codes = tag_codes
        self.tags = tags
        self.store = store
        self.terms = terms
        self.layouts = layouts

    def __len__(self) -> int:
        return len(self.gids)

    # ------------------------------------------------------------------
    def tag_mask(self, tag: str) -> np.ndarray:
        """Boolean row mask of the values carrying ``tag``."""
        try:
            code = self.tags.index(tag)
        except ValueError:
            return np.zeros(len(self.gids), dtype=bool)
        return self.tag_codes == code

    def tag_groups(self) -> List[Tuple[str, np.ndarray]]:
        """``(tag, row indices)`` per tag present, in order of first
        appearance."""
        codes, first = np.unique(self.tag_codes, return_index=True)
        return [
            (self.tags[code], np.flatnonzero(self.tag_codes == code))
            for code in codes[np.argsort(first)].tolist()
        ]


class IndexBlock(SequenceABC):
    """Records as read-only row-index columns into named relations: what
    a job commits between cycles.  ``rows`` holds one int64 column per
    member slot.  In a *tuple* block slot ``j`` indexes ``relations[j]``,
    named ``names[j]``, and a record is its members' rows — ``(name,
    row)`` pairs when ``labelled`` (a partial tuple), else bare (a join
    tuple).  In a *flag* block (RCCIS's cycle-1 output) the one slot
    indexes relation ``codes[i]`` and a record is ``(name, row,
    flagged)``.  As a sequence it *is* those records; as an
    :attr:`~repro.mapreduce.job.InputSpec.source` it is the relations'
    columns, gathered by row index."""

    __slots__ = ("names", "relations", "rows", "codes", "flagged", "labelled")

    def __init__(self, names, relations, rows, codes=None, flagged=None, labelled=True) -> None:
        self.names, self.relations, self.labelled = tuple(names), tuple(relations), labelled
        rows = np.asarray(rows, dtype=np.int64)
        self.rows = rows[:, None] if rows.ndim == 1 else rows
        self.codes = None if codes is None else np.asarray(codes, dtype=np.int64)
        self.flagged = None if flagged is None else np.asarray(flagged, dtype=bool)
        for column in (self.rows, self.codes, self.flagged):
            if column is not None:
                column.flags.writeable = False

    @classmethod
    def from_records(cls, records: Sequence[Any], relations: Mapping[str, Any]) -> "IndexBlock":
        """The one converter of records read back from a file — flag
        records, partial tuples, or join tuples of ``relations`` in
        order — to the block they stand for, each row found by its rid."""
        names = list(relations)
        at = {
            name: {rid: i for i, rid in enumerate(r.rid_objects().tolist())}
            for name, r in relations.items()
        }
        if len(records) and isinstance(records[0][0], str):  # flag records
            rows = [at[name][row.rid] for name, row, _ in records]
            codes = [names.index(name) for name, _, _ in records]
            return cls(names, relations.values(), rows, codes, [flag for *_, flag in records])
        labelled = not len(records) or isinstance(records[0][0], tuple)
        if len(records) and labelled:
            names = [name for name, _ in records[0]]
            records = [[row for _, row in record] for record in records]
        rows = [[at[name][row.rid] for name, row in zip(names, record)] for record in records]
        members = [relations[name] for name in names]
        return cls(names, members, np.reshape(rows, (-1, len(names))), labelled=labelled)

    @classmethod
    def concat(cls, blocks: Sequence["IndexBlock"]) -> "IndexBlock":
        """The records of ``blocks``, in order, as one block."""
        first = blocks[0]
        shape = lambda b: (b.names, b.relations, b.codes is None, b.labelled)
        if any(shape(b) != shape(first) for b in blocks):
            raise ValueError("cannot concatenate blocks over other relations")
        joined = [
            None if getattr(first, column) is None
            else np.concatenate([getattr(b, column) for b in blocks])
            for column in ("rows", "codes", "flagged")
        ]
        return cls(first.names, first.relations, *joined, first.labelled)

    def take(self, index) -> "IndexBlock":
        """The records at ``index`` (a mask or positions), as a block."""
        codes, flagged = (None if c is None else c[index] for c in (self.codes, self.flagged))
        return IndexBlock(self.names, self.relations, self.rows[index], codes, flagged, self.labelled)

    def select(self, names: Sequence[str], labelled: bool = True) -> "IndexBlock":
        """The members ``names``, in that order, as a tuple block — of a
        flag block, whose records are then all of relation ``names[0]``."""
        flags = self.codes is not None
        if not flags and (self.names, self.labelled) == (tuple(names), labelled):
            return self
        slots = [0 if flags else self.names.index(name) for name in names]
        relations = [self.relations[self.names.index(name)] for name in names]
        # The same members in the same order share the read-only column.
        rows = self.rows if slots == list(range(self.rows.shape[1])) else self.rows[:, slots]
        return IndexBlock(names, relations, rows, labelled=labelled)

    def member(self, name: str) -> Tuple[Any, np.ndarray]:
        """The relation member ``name`` indexes, and its row-index
        column (a view)."""
        slot = self.names.index(name)
        return self.relations[slot], self.rows[:, slot]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return next(iter(self.take([range(len(self))[index]])))

    def __iter__(self) -> Iterator[Any]:
        if self.codes is not None:
            names = object_column(self.names)[self.codes].tolist()
            return zip(names, self.row_column().tolist(), self.flagged.tolist())
        if not self.labelled:
            return iter(self.tuples())
        return zip(*(
            zip(repeat(name), self.row_column(slot).tolist())
            for slot, name in enumerate(self.names)
        ))

    def __reduce__(self):
        # Pickled, it is the record list: the relations it indexes
        # never travel.
        return (list, (list(self),))

    def tuples(
        self,
        names: Optional[Sequence[str]] = None,
        into: Optional[List[Any]] = None,
        reverse: bool = False,
    ) -> List[Tuple[Any, ...]]:
        """A tuple block's bare records — of its members ``names``, in
        that order, when given: one take per relation, zipped — a chunk
        of :func:`_tuple_chunk` records at a time, so that a chunk's
        taken columns and the ``Row`` headers its tuples touch stay in
        cache from the take to the zip.  They are appended to ``into``
        when given, else to a new list, which is returned; ``reverse``
        appends them last record first."""
        slots = range(len(self.names)) if names is None else list(map(self.names.index, names))
        tuples: List[Any] = [] if into is None else into
        columns = [self.relations[slot].row_column() for slot in slots]
        chunk = _tuple_chunk(len(columns))
        starts = range(0, len(self), chunk)
        for lo in reversed(starts) if reverse else starts:
            rows = self.rows[lo : lo + chunk]
            rows = (rows[::-1] if reverse else rows).T
            tuples += zip(*(column[rows[slot]] for column, slot in zip(columns, slots)))
        return tuples

    # -- the source role (see repro.mapreduce.job.InputSpec) -----------
    def columns(self, attributes: Mapping[str, str]):
        """A flag block's endpoint columns: each record's relation's
        ``columns`` of its attribute in ``attributes``."""
        return self._endpoints(0, lambda code: attributes[self.names[code]])

    def term_columns(self, term):
        """A tuple block's endpoint columns of ``term``: its member's."""
        return self._endpoints(self.names.index(term.relation), lambda code: term.attribute)

    def _endpoints(self, slot: int, attribute: Callable[[int], str]):
        from repro.intervals.sweep import SortedColumns  # builds on this module

        columns = lambda code: self.relations[code].columns(attribute(code))
        return SortedColumns(*(
            self._gather(slot, lambda code: getattr(columns(code), side), np.float64)
            for side in ("starts", "ends")
        ))

    def row_column(self, slot: int = 0) -> np.ndarray:
        """Slot ``slot``'s rows as an object column."""
        return self._gather(slot, lambda code: self.relations[code].row_column(), object)

    def _gather(self, slot: int, column_of: Callable[[int], np.ndarray], dtype) -> np.ndarray:
        """Per record, ``column_of(its relation's code)`` at its row in
        ``slot``, in ``dtype`` or wider."""
        rows = self.rows[:, slot]
        if self.codes is None:
            return column_of(slot)[rows]
        masks = {code: self.codes == code for code in range(len(self.relations))}
        columns = {code: column_of(code) for code, mask in masks.items() if mask.any()}
        out = np.empty(len(self), dtype=np.result_type(dtype, *columns.values()))
        for code, column in columns.items():
            out[masks[code]] = column[rows[masks[code]]]
        return out


class PayloadStore:
    """Parent-side payload-id resolution for one job: ``gid ->`` the
    payload of the record the pair was emitted for (``segment`` selects
    the map task whose input held it, the low 32 bits the record), which
    :meth:`take` resolves a column at a time."""

    def __init__(self) -> None:
        self._segments: Dict[int, Tuple[Sequence[Any], Any, Any]] = {}
        #: segment -> its records' payloads as an object column, built
        #: on first use; reduce tasks share the store across threads.
        self._payloads: Dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def add_segment(
        self, segment: int, records: Sequence[Any], mapper, source: Any = None
    ) -> None:
        """One map task's input: its records, its mapper and, if it
        names one, its :attr:`~repro.mapreduce.job.InputSpec.source`."""
        self._segments[segment] = (records, mapper, source)

    def sources(self) -> Tuple[Any, ...]:
        """Each segment's source (or ``None``), in segment order."""
        return tuple(self._segments[segment][2] for segment in sorted(self._segments))

    def take(self, gids) -> np.ndarray:
        """The payloads of ``gids`` as an object column: one ``take`` per
        segment over the segment's payload column."""
        return self._take(gids, self._payload_column)

    def rids(self, gids) -> np.ndarray:
        """The rids of the base-input rows ``gids`` name, as an object
        column: one ``take`` per segment over its source relation's
        shared rid objects — no record is read."""
        return self._take(gids, lambda segment: self._segments[segment][2].rid_objects())

    def _take(self, gids, column_of: Callable[[int], np.ndarray]) -> np.ndarray:
        gids = np.asarray(gids, dtype=np.int64)
        segments, rows = gids >> 32, gids & _MASK32
        taken = np.empty(len(gids), dtype=object)
        unresolved = len(gids)
        for segment in self._segments:
            here = segments == segment
            if here.any():
                column = column_of(segment)
                if here.all():
                    return column[rows]
                taken[here] = column[rows[here]]
                unresolved -= int(np.count_nonzero(here))
        if unresolved:
            raise KeyError("payload id of an unknown segment")
        return taken

    def block(
        self, gids: np.ndarray, members: Sequence[Sequence[str]], labelled: bool
    ) -> Sequence[Any]:
        """The records a kernel's gid columns name, as one tuple block:
        column ``j`` names records of one input that hold ``members[j]``
        — a base input's record is its relation's row, a block's its
        members' rows.  No records: an empty list."""
        if not len(gids):
            return []
        parts = []
        for column, names in zip(np.asarray(gids, dtype=np.int64).T, members):
            source = self._segments[int(column[0]) >> 32][2]
            if source is None or ((column >> 32) != (column[0] >> 32)).any():
                raise MapReduceError("a block's column indexes one input's relations")
            at = column & _MASK32
            parts.append(
                source.take(at).select(names) if isinstance(source, IndexBlock)
                else IndexBlock(names, [source], at)
            )
        return IndexBlock(
            [name for part in parts for name in part.names],
            [relation for part in parts for relation in part.relations],
            np.hstack([part.rows for part in parts]),
            labelled=labelled,
        )

    def _payload_column(self, segment: int) -> np.ndarray:
        with self._lock:
            column = self._payloads.get(segment)
            if column is None:
                records, mapper, source = self._segments[segment]
                # A base input's records are its relation's rows, which
                # the relation already keeps as an object column.
                column = self._payloads[segment] = mapper.payloads_of(
                    object_column(records) if source is None else source.row_column()
                )
            return column
