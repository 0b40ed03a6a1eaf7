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
the framework formats back into output records once per task, a column
of gids at a time, through the store's payloads.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence as SequenceABC
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
    "interval_columns",
    "operator_map_columns",
    "ranged_targets",
]

_MASK32 = 0xFFFFFFFF


def ranged_targets(
    lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised emission of inclusive index ranges ``lo[i]..hi[i]``.

    Returns ``(keys, row_idx)`` in record-major order — record ``i``'s
    targets appear consecutively and ascending, exactly matching the
    records plane's per-record ``for index in range(...)`` loops.
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
        #: counter key the records plane never creates).
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


def interval_columns(
    records: Sequence[Any], interval_of: Callable[[Any], Any]
) -> Tuple[np.ndarray, np.ndarray]:
    """A mapper's ``encode_intervals``: the ``(starts, ends)`` columns of
    the intervals ``interval_of`` reads off each record — float64, or
    ``object`` where some endpoint is not exact in float64, so that
    comparing the columns is always comparing the intervals."""
    intervals = [interval_of(record) for record in records]
    starts = endpoint_column([interval.start for interval in intervals])
    ends = endpoint_column([interval.end for interval in intervals])
    return starts, ends


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
    so row order equals the records plane's pair-stream order.
    """

    def __init__(self, codec: "KeyCodec") -> None:
        self.codec = codec
        self._tags: List[str] = []
        #: per tag code, the terms its values carry (see ColumnValues).
        self._layouts: List[Tuple[Any, ...]] = []
        self._blocks: List[Tuple[np.ndarray, ...]] = []
        self._columns: Optional[Tuple[np.ndarray, ...]] = None
        self._further: Optional[Terms] = None
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

    def logical_loads(self) -> Dict[Hashable, int]:
        """Pairs per distinct key, decoded to native Python keys."""
        key_codes = self.columns()[0]
        codes, counts = np.unique(key_codes, return_counts=True)
        return {
            self.codec.decode(int(code)): int(count)
            for code, count in zip(codes, counts)
        }


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
    """``(relation, row, flagged)`` records as read-only index columns:
    per record its relation's code into ``names`` / ``relations``, its
    row in that relation and its flag.  As a sequence it *is* those
    records; as an :attr:`~repro.mapreduce.job.InputSpec.source` it is
    the relations' columns, gathered by row index."""

    __slots__ = ("names", "relations", "codes", "rows", "flagged")

    def __init__(self, names, relations, codes, rows, flagged) -> None:
        self.names, self.relations = tuple(names), tuple(relations)
        self.codes = np.asarray(codes, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.flagged = np.asarray(flagged, dtype=bool)
        for column in (self.codes, self.rows, self.flagged):
            column.flags.writeable = False

    @classmethod
    def concat(cls, blocks: Sequence["IndexBlock"]) -> "IndexBlock":
        """The records of ``blocks``, in order, as one block."""
        first = blocks[0]
        if any((b.names, b.relations) != (first.names, first.relations) for b in blocks):
            raise ValueError("cannot concatenate blocks over other relations")
        columns = ("codes", "rows", "flagged")
        return cls(first.names, first.relations, *(
            np.concatenate([getattr(b, column) for b in blocks]) for column in columns
        ))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        code = int(self.codes[index])
        row = self.relations[code].rows[self.rows[index]]
        return (self.names[code], row, bool(self.flagged[index]))

    def __iter__(self) -> Iterator[Tuple[str, Any, bool]]:
        names = object_column(self.names)[self.codes]
        return zip(names.tolist(), self.row_column().tolist(), self.flagged.tolist())

    def __reduce__(self):
        # Pickled (a records-plane task shipped to a worker), it is the
        # record list: the relations it indexes never travel.
        return (list, (list(self),))

    # -- the source role (see repro.mapreduce.job.InputSpec) -----------
    def columns(self, attributes: Mapping[str, str]):
        """The records' endpoint columns: each relation's ``columns`` of
        its attribute in ``attributes``, gathered by row index."""
        from repro.intervals.sweep import SortedColumns  # builds on this module

        column = lambda code: self.relations[code].columns(attributes[self.names[code]])
        return SortedColumns(
            self._gather(lambda code: column(code).starts, np.float64),
            self._gather(lambda code: column(code).ends, np.float64),
        )

    def row_column(self) -> np.ndarray:
        """The records' rows as an object column."""
        return self._gather(lambda code: self.relations[code].row_column(), object)

    def _gather(self, column_of: Callable[[int], np.ndarray], dtype) -> np.ndarray:
        """Per record, ``column_of(its code)[its row]``, in ``dtype`` or wider."""
        masks = {code: self.codes == code for code in range(len(self.relations))}
        columns = {code: column_of(code) for code, mask in masks.items() if mask.any()}
        out = np.empty(len(self), dtype=np.result_type(dtype, *columns.values()))
        for code, column in columns.items():
            out[masks[code]] = column[self.rows[masks[code]]]
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
        gids = np.asarray(gids, dtype=np.int64)
        segments, rows = gids >> 32, gids & _MASK32
        taken = np.empty(len(gids), dtype=object)
        unresolved = len(gids)
        for segment in self._segments:
            here = segments == segment
            if here.any():
                column = self._payload_column(segment)
                if here.all():
                    return column[rows]
                taken[here] = column[rows[here]]
                unresolved -= int(np.count_nonzero(here))
        if unresolved:
            raise KeyError("payload id of an unknown segment")
        return taken

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
