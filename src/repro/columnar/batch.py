"""Struct-of-arrays batches for the columnar data plane.

The columnar plane never ships row objects through the shuffle.  A map
task emits a :class:`MapBlock` — parallel numpy columns of int64 key
codes and row indices — and the job accumulates them into one
:class:`ColumnarPairs` batch, tagging each emitted pair with a *payload
id* (``gid``)::

    gid = (map_task_index << 32) | row_index

The raw input records stay on the parent in the job's
:class:`PayloadStore`; reducers work on :class:`ColumnValues` — the
sorted column slices of one key group — and emit gid-shaped outputs
that are materialised back into the exact records-plane objects at the
end, a column of gids at a time.  Every materialised value is the same
object the records plane would have shuffled, which is what keeps
outputs and counters bit-identical across planes.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.codec import KeyCodec
    from repro.intervals.partitioning import Partitioning
    from repro.mapreduce.job import JobConf

__all__ = [
    "MapBlock",
    "ColumnarPairs",
    "ColumnValues",
    "PayloadStore",
    "job_columnar_gate",
    "endpoint_column",
    "object_column",
    "interval_columns",
    "operator_map_columns",
    "ranged_targets",
    "reduce_columns",
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

    __slots__ = ("key_codes", "row_idx", "tag_codes", "tags", "counters")

    def __init__(
        self,
        key_codes: np.ndarray,
        row_idx: np.ndarray,
        tag_codes: np.ndarray,
        tags: Tuple[str, ...],
        counters: Optional[Dict[Tuple[str, str], int]] = None,
    ) -> None:
        self.key_codes = np.asarray(key_codes, dtype=np.int64)
        self.row_idx = np.asarray(row_idx, dtype=np.int64)
        self.tag_codes = np.asarray(tag_codes, dtype=np.int16)
        self.tags = tuple(tags)
        #: user-counter increments, ``(group, name) -> amount``; only
        #: non-zero amounts may appear (a zero entry would create a
        #: counter key the records plane never creates).
        self.counters = dict(counters or {})

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
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """A mapper's ``encode_intervals``: the ``(starts, ends)`` float64
    columns of the routing intervals ``interval_of`` reads off each
    record — or ``None`` when some endpoint is not exact in float64, in
    which case comparing the columns would not be comparing the
    intervals and the job has to run on the records plane."""
    intervals = [interval_of(record) for record in records]
    starts = endpoint_column([interval.start for interval in intervals])
    ends = endpoint_column([interval.end for interval in intervals])
    if starts.dtype == object or ends.dtype == object:
        return None
    return starts, ends


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
    ``starts``/``ends`` (float64 routing-interval endpoints) and
    ``tag_codes`` (int16 into the job's tag table).  Blocks append in
    map-task order, so row order equals the records plane's pair-stream
    order.
    """

    def __init__(self, codec: "KeyCodec") -> None:
        self.codec = codec
        self._tags: List[str] = []
        self._blocks: List[Tuple[np.ndarray, ...]] = []
        self._columns: Optional[Tuple[np.ndarray, ...]] = None
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def tags(self) -> Tuple[str, ...]:
        return tuple(self._tags)

    def intern_tag(self, tag: str) -> int:
        try:
            return self._tags.index(tag)
        except ValueError:
            self._tags.append(tag)
            return len(self._tags) - 1

    def append_block(
        self,
        block: MapBlock,
        segment: int,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> None:
        """Absorb one map task's emission.

        ``starts``/``ends`` are the task's *per-record* routing-interval
        columns; per-pair endpoints are gathered through the block's
        ``row_idx``.
        """
        if self._columns is not None:  # pragma: no cover - defensive
            raise RuntimeError("batch already finalised")
        remap = np.asarray(
            [self.intern_tag(tag) for tag in block.tags], dtype=np.int16
        )
        tag_codes = (
            remap[block.tag_codes] if len(remap) else block.tag_codes
        )
        gids = (np.int64(segment) << np.int64(32)) | block.row_idx
        self._blocks.append(
            (
                block.key_codes,
                gids,
                np.asarray(starts, dtype=np.float64)[block.row_idx],
                np.asarray(ends, dtype=np.float64)[block.row_idx],
                tag_codes,
            )
        )
        self._length += len(block)

    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(key_codes, gids, starts, ends, tag_codes)``, concatenated."""
        if self._columns is None:
            if self._blocks:
                self._columns = tuple(
                    np.concatenate([b[i] for b in self._blocks])
                    for i in range(5)
                )
            else:
                self._columns = (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.int16),
                )
            self._blocks = []
        return self._columns

    def logical_loads(self) -> Dict[Hashable, int]:
        """Pairs per distinct key, decoded to native Python keys."""
        key_codes = self.columns()[0]
        codes, counts = np.unique(key_codes, return_counts=True)
        return {
            self.codec.decode(int(code)): int(count)
            for code, count in zip(codes, counts)
        }


class ColumnValues:
    """One key group's values as column slices.

    Quacks like the records plane's value list where the framework needs
    it to — ``len()`` is the group size and iteration lazily materialises
    the exact records-plane value objects through the payload store (used
    by the pickle safety net).  Reducers that understand columns never
    materialise; they read the arrays directly.
    """

    __slots__ = ("key", "gids", "starts", "ends", "tag_codes", "tags", "store")

    def __init__(
        self,
        key: Hashable,
        gids: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        tag_codes: np.ndarray,
        tags: Tuple[str, ...],
        store: Optional["PayloadStore"],
    ) -> None:
        self.key = key
        self.gids = gids
        self.starts = starts
        self.ends = ends
        self.tag_codes = tag_codes
        self.tags = tags
        self.store = store

    def __len__(self) -> int:
        return len(self.gids)

    def __iter__(self) -> Iterator[Any]:
        if self.store is None:  # pragma: no cover - defensive
            raise RuntimeError(
                "cannot materialise values without the payload store"
            )
        for gid in self.gids.tolist():
            yield self.store.value(gid)

    def __reduce__(self):
        # Pickle safety net: anything that serialises a group receives
        # the materialised value list instead of live arrays.
        return (list, (list(self),))

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
        appearance — the order a records reducer's group-by-tag dict
        iterates in."""
        codes, first = np.unique(self.tag_codes, return_index=True)
        return [
            (self.tags[code], np.flatnonzero(self.tag_codes == code))
            for code in codes[np.argsort(first)].tolist()
        ]


class PayloadStore:
    """Parent-side payload-id resolution for one job.

    ``gid -> `` the exact shuffle value ``(tag, payload)`` the records
    plane would have emitted for that pair (``segment`` selects the map
    task whose input held the record, the low 32 bits select the
    record).  Reducers rebuild their outputs from the payloads, which
    :meth:`take` resolves a column at a time.
    """

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

    def record(self, gid: int) -> Any:
        return self._segments[gid >> 32][0][gid & _MASK32]

    def value(self, gid: int) -> Any:
        """One gid's shuffle value (the pickle safety net's form)."""
        records, mapper, _ = self._segments[gid >> 32]
        return mapper.value_of(records[gid & _MASK32])

    def take(self, gids) -> np.ndarray:
        """``[self.value(gid)[1] for gid in gids]`` as an object column:
        one ``take`` per segment over the segment's payload column."""
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


# ----------------------------------------------------------------------
# Job gating and the reducer-side dispatch.
# ----------------------------------------------------------------------

def job_columnar_gate(
    conf: "JobConf",
) -> Tuple[Optional[str], Optional[str]]:
    """What the job itself says about its data plane: ``(key kind,
    None)`` when no combiner is configured and every mapper and the
    reducer implement the columnar protocol, report themselves ready and
    agree on one key family; else ``(None, reason)`` — the job runs on
    the records plane and the reason string goes on its span and its
    :class:`~repro.mapreduce.job.JobResult`."""
    if conf.combiner is not None:
        return None, "combiner-configured"
    kinds = set()
    for spec in conf.inputs:
        mapper = spec.mapper
        if not hasattr(mapper, "map_columns"):
            return None, "mapper-no-columnar-protocol"
        ready = getattr(mapper, "columnar_ready", None)
        if ready is None or not ready():
            return None, "mapper-not-columnar-ready"
        kinds.add(getattr(mapper, "columnar_key_kind", None))
    if len(kinds) != 1 or None in kinds:
        return None, "mixed-key-kinds"
    reducer = conf.reducer
    if not hasattr(reducer, "columnar_outputs"):
        return None, "reducer-no-columnar-protocol"
    ready = getattr(reducer, "columnar_ready", None)
    if ready is None or not ready():
        return None, "reducer-not-columnar-ready"
    return kinds.pop(), None


def reduce_columns(reducer, key: Hashable, values: ColumnValues, context) -> None:
    """Drive one columnar key group through a protocol-aware reducer.

    With the payload store at hand (serial / threads, or the parent) the
    group's gid-shaped outputs materialise in one batch; without it (a
    worker process holding only shared-memory columns) the raw gid
    outputs are emitted and the parent materialises them after the
    round trip.
    """
    outs = reducer.columnar_outputs(key, values, context.counters)
    if values.store is not None:
        outs = reducer.materialize_outputs(outs, values.store)
    elif isinstance(outs, np.ndarray):
        outs = outs.tolist()  # plain ints pickle; array rows would not
    context.emit_many(outs)
