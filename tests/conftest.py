"""Shared test fixtures and helpers."""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro import Interval, IntervalJoinQuery, Relation, reference_join
from repro.columnar.batch import ColumnValues, IndexBlock, Terms, endpoint_column, object_column
from repro.core.algorithms.routing import OperatorRouter, RoutedMapper, RowView
from repro.core.schema import Row
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.io import decode_row, encode_row
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.task import KernelReducer, MapContext


def make_random_relation(
    name: str,
    n: int,
    *,
    span: float = 200.0,
    max_length: float = 30.0,
    rng: Optional[random.Random] = None,
    integer: bool = False,
) -> Relation:
    """A random single-attribute interval relation."""
    rng = rng or random.Random(0)
    intervals: List[Interval] = []
    for _ in range(n):
        if integer:
            start = rng.randint(0, int(span))
            end = start + rng.randint(0, int(max_length))
            intervals.append(Interval(start, end))
        else:
            start = round(rng.uniform(0, span), 3)
            end = round(start + rng.uniform(0, max_length), 3)
            intervals.append(Interval(start, end))
    return Relation.of_intervals(name, intervals)


def make_dataset(
    names: Sequence[str],
    n: int,
    seed: int = 0,
    *,
    span: float = 200.0,
    max_length: float = 30.0,
    integer: bool = False,
) -> Dict[str, Relation]:
    """One random relation per name, all from one seeded RNG."""
    rng = random.Random(seed)
    return {
        name: make_random_relation(
            name, n, span=span, max_length=max_length, rng=rng,
            integer=integer,
        )
        for name in names
    }


def make_two_attribute_dataset(
    names: Sequence[str], n: int, seed: int = 0
) -> Dict[str, Relation]:
    """Relations whose rows carry two intervals, ``I`` and ``J``."""
    first, second = make_dataset(names, n, seed), make_dataset(names, n, seed + 1)
    return {
        name: Relation.of_records(
            name,
            [
                {"I": i, "J": j}
                for i, j in zip(first[name].intervals(), second[name].intervals())
            ],
        )
        for name in names
    }


def dataset_for(query: IntervalJoinQuery, n: int, seed: int = 0) -> Dict[str, Relation]:
    """Random relations for ``query``: two-attribute rows when it reads two."""
    if query.is_single_attribute:
        return make_dataset(query.relations, n, seed)
    return make_two_attribute_dataset(query.relations, n, seed)


# ----------------------------------------------------------------------
# Hand-built key groups, for driving a reducer's kernel directly.
# ----------------------------------------------------------------------


def payload_row(payload: Any, relation: str) -> Row:
    """The row a shuffle payload holds for ``relation``: a row is its
    own, a ``(relation, row)`` member holds one, a partial tuple one per
    member."""
    if isinstance(payload, Row):
        return payload
    if isinstance(payload[0], str):
        return payload[1]
    return dict(payload)[relation]


class GroupStore:
    """The payload store of one hand-built group: gid ``(c << 32) | i``
    is the ``i``-th value tagged ``tags[c]``, and segment ``c``'s source
    holds those values' payloads as its rows (what a flag cycle's
    formatter reads, input ``c`` being relation ``c``)."""

    def __init__(self, segments: Sequence[List[Any]]) -> None:
        self.segments = [object_column(payloads) for payloads in segments]

    def take(self, gids) -> np.ndarray:
        gids = np.asarray(gids, dtype=np.int64)
        taken = np.empty(len(gids), dtype=object)
        for code, payloads in enumerate(self.segments):
            here = (gids >> 32) == code
            taken[here] = payloads[gids[here] & 0xFFFFFFFF]
        return taken

    def sources(self) -> Tuple[Any, ...]:
        return tuple(
            SimpleNamespace(rows=payloads, row_column=lambda payloads=payloads: payloads)
            for payloads in self.segments
        )

    def block(self, gids, members, labelled):
        """As ``PayloadStore.block``: each member's relation is the rows
        its segment's payloads hold for it, and a gid's low half its row
        there."""
        if not len(gids):
            return []
        relations, rows = [], []
        for column, names in zip(np.asarray(gids, dtype=np.int64).T, members):
            payloads = self.segments[int(column[0]) >> 32].tolist()
            for name in names:
                own = object_column([payload_row(payload, name) for payload in payloads])
                relations.append(SimpleNamespace(row_column=lambda own=own: own))
                rows.append(column & 0xFFFFFFFF)
        names = [name for group in members for name in group]
        return IndexBlock(names, relations, np.stack(rows, axis=1), labelled=labelled)


def column_values(
    values: Sequence[Tuple[Any, Any]], layouts: Mapping[Any, Sequence[Any]], key: Any = 0
) -> ColumnValues:
    """``(tag, payload)`` values as one key group of the columnar plane,
    in their order.  ``layouts`` maps each tag to the terms its values
    carry: the routing term first (``None``: the member interval that
    starts right-most, as FCTS routes a partial), then one per further
    slot.  Each term is read off the payload's row for its relation, as
    float64 columns where exact and ``object`` otherwise."""
    tags = tuple(layouts)
    layout_of = tuple(tuple(layouts[tag]) for tag in tags)
    codes = [tags.index(tag) for tag, _ in values]

    def interval(payload, layout, slot):
        if slot >= len(layout):  # a slot this tag's values leave unread
            return Interval(0, 0)
        if layout[slot] is None:
            return max(
                (interval(payload, layout, k) for k in range(1, len(layout))),
                key=lambda iv: iv.start,
            )
        term = layout[slot]
        return payload_row(payload, term.relation).interval(term.attribute)

    def columns(slot):
        intervals = [
            interval(payload, layout_of[code], slot)
            for (_, payload), code in zip(values, codes)
        ]
        return (
            endpoint_column([iv.start for iv in intervals]),
            endpoint_column([iv.end for iv in intervals]),
        )

    width = max((len(layout) - 1 for layout in layout_of), default=0)
    further = [columns(slot) for slot in range(1, width + 1)]
    segments: List[List[Any]] = [[] for _ in tags]
    gids = []
    for (_, payload), code in zip(values, codes):
        gids.append((code << 32) | len(segments[code]))
        segments[code].append(payload)
    return ColumnValues(
        key,
        np.array(gids, dtype=np.int64),
        *columns(0),
        np.array(codes, dtype=np.int16),
        tags,
        GroupStore(segments),
        Terms(*(np.stack([c[i] for c in further], axis=1) for i in (0, 1)))
        if width else None,
        layout_of,
    )


def run_kernel(reducer: Any, group: ColumnValues) -> Tuple[List[Any], Counters]:
    """A kernel reducer over one group, as the runner drives it:
    ``kernel``, then ``format`` through the group's store."""
    counters = Counters()
    block = reducer.kernel(group.key, group, counters)
    return list(reducer.format(block, group.store)), counters


# ----------------------------------------------------------------------
# One small job, for tests of the framework itself — counters, loads,
# retries, commit, spans — rather than of a join: every row of a
# generated relation is split over the partitions it meets, and each
# shuffled value comes out as ``(key, rid)``.
# ----------------------------------------------------------------------

#: The helper job's input relation and where it is written.
HELPER = make_random_relation(
    "R", 12, span=60.0, max_length=20.0, rng=random.Random(3), integer=True
)
HELPER_INPUT = "in/R"
HELPER_PARTITIONING = Partitioning.uniform(0, 60, 4)


def helper_mapper() -> RoutedMapper:
    """The helper job's mapper: split each row over its partitions."""
    return RoutedMapper(
        RowView("R", "I"), OperatorRouter(HELPER_PARTITIONING, MapOperator.SPLIT)
    )


class KeyRidReducer(KernelReducer):
    """Per shuffled value, the output ``(key, rid)``: the partition it
    reached and its row's id — plain ints, which a ``LocalFileSystem``
    stores as they are.  The kernel's rows are ``[gid, key]``."""

    def kernel(self, key, group, counters):
        return np.stack([group.gids, np.full(len(group), key, dtype=np.int64)], axis=1)

    def format(self, block, store):
        if not len(block):
            return []
        rows = store.take(block[:, 0])
        return [(key, row.rid) for row, key in zip(rows, block[:, 1].tolist())]


def helper_conf(**overrides) -> JobConf:
    """The helper job (``overrides`` replace ``JobConf`` fields)."""
    defaults = dict(
        name="rows",
        inputs=[InputSpec(HELPER_INPUT, helper_mapper())],
        reducer=KeyRidReducer(),
        output="out",
        num_reduce_tasks=3,
    )
    defaults.update(overrides)
    return JobConf(**defaults)


def write_helper_input(fs, path: str = HELPER_INPUT) -> None:
    """Write the helper relation's rows to ``fs`` at ``path``."""
    fs.write(path, HELPER.rows, overwrite=True)


def helper_pairs(rows: Sequence[Row] = HELPER.rows) -> List[Tuple[int, int]]:
    """What the helper job outputs for ``rows``, in no particular order:
    ``(key, rid)`` per target of each row, read off the mapper's
    per-record form."""
    context = MapContext(Counters(), HELPER_INPUT)
    mapper = helper_mapper()
    for row in rows:
        mapper.map(row, context)
    return [(key, row.rid) for key, (_, row) in context.drain()]


#: ``LocalFileSystem`` codec keywords that store the helper's input rows
#: as JSON objects; its ``(key, rid)`` outputs pass through untouched.
ROW_CODEC = dict(
    encode=lambda record: encode_row(record) if isinstance(record, Row) else record,
    decode=lambda value: decode_row(value) if isinstance(value, dict) else value,
)


def assert_matches_reference(query: IntervalJoinQuery, data, result) -> None:
    """Assert a JoinResult equals the oracle, with a helpful diff."""
    reference = reference_join(query, data)
    got = result.tuple_ids()
    want = reference.tuple_ids()
    missing = set(map(tuple, want)) - set(map(tuple, got))
    extra = set(map(tuple, got)) - set(map(tuple, want))
    assert not missing and not extra, (
        f"{result.metrics.algorithm}: missing={sorted(missing)[:5]} "
        f"extra={sorted(extra)[:5]} (|got|={len(got)}, |want|={len(want)})"
    )
    # Exactly-once: no duplicate tuples either.
    assert len(got) == len(set(map(tuple, got))), "duplicate output tuples"


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
