"""Sorted once: a base relation reaches its reducers in start order.

A map task reads a base-relation input in the relation's memoised
by-start order (``Mapper.start_order``), routing emits each record's
targets in record order and the shuffle keeps emission order within a
key, so every base-relation tag of a key group arrives sorted by start —
ties in the relation's row order — and the reducer's sweep sorts none of
it again.  Pinned here:

* the arrival order itself, for every router — project, split (a record
  sent to several partitions included), replicate and grid cells with
  flag and keep rules, which read the records through the permutation —
  together with *what* arrives: each key group's payload ids are exactly
  those of the records' own routing in row order;
* the census: inside the reduce tasks of every algorithm, under
  ``serial`` and ``threads``, no ``argsort`` sorts a base-relation tag's
  starts (the index's by-start order, or a first probe side's).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Interval, Relation
from repro.columnar.codec import KEY_CODECS
from repro.core.algorithms.routing import CellRouter, OperatorRouter, RoutedMapper, RowView
from repro.core.executor import execute
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.mapreduce import InMemoryFileSystem, KernelReducer, run_job
from repro.mapreduce import runner
from repro.mapreduce.job import InputSpec, JobConf

from tests.conftest import make_dataset
from tests.integration.test_ingest_columns import CENSUS

PARTITIONING = Partitioning.uniform(0, 100, 5)
#: The grid of a two-relation sequence join: cells (i, j) with i <= j.
CELLS = [(i, j) for i in range(5) for j in range(i, 5)]


class ArrivalReducer(KernelReducer):
    """Records, per key group and tag, the payload ids and starts its
    values arrive with; emits nothing."""

    def __init__(self) -> None:
        self.seen = []
        self._lock = threading.Lock()

    def kernel(self, key, group, counters):
        with self._lock:
            for tag, rows in group.tag_groups():
                self.seen.append((key, tag, group.gids[rows], group.starts[rows]))
        return np.empty((0, 1), dtype=np.int64)

    def format(self, block, store):
        return []


def _mappers(kind, flagged, keep):
    """Two inputs' mappers, both keyed by ``kind``'s key family."""
    if kind == "cells":
        return [
            RoutedMapper(RowView(name, "I"), CellRouter(PARTITIONING, dim, CELLS, flagged, keep))
            for dim, name in enumerate(("R1", "R2"))
        ]
    operators = {"project": MapOperator.PROJECT, "split": MapOperator.SPLIT,
                 "replicate": MapOperator.REPLICATE}
    second = MapOperator.SPLIT if kind == "project" else MapOperator.PROJECT
    return [
        RoutedMapper(RowView("R1", "I"), OperatorRouter(PARTITIONING, operators[kind])),
        RoutedMapper(RowView("R2", "I"), OperatorRouter(PARTITIONING, second)),
    ]


def _relation(name, intervals):
    # Row ids run backwards so that no code path can get away with
    # confusing a row's id with its position.
    rids = list(range(len(intervals)))[::-1]
    starts, ends = zip(*intervals) if intervals else ((), ())
    return Relation.from_columns(name, {"I": (list(starts), list(ends))}, rids)


def _expected(mapper, relation, segment):
    """key code -> the payload ids the records' own routing, in row
    order, sends to it."""
    columns = relation.columns("I")
    block = mapper.map_columns(columns.starts, columns.ends, list(relation.rows))
    out = {}
    for code, row in zip(block.key_codes.tolist(), block.row_idx.tolist()):
        out.setdefault(code, []).append((segment << 32) | row)
    return out


#: Small integer endpoints: ties, zero-length intervals and records
#: spanning several partitions are common; some start before the first
#: partition's lower bound or end past the last's upper one.
intervals = st.lists(
    st.tuples(st.integers(-10, 110), st.integers(0, 45)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=40,
)


@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize("kind", ["project", "split", "replicate", "cells"])
@settings(max_examples=25, deadline=None)
@given(first=intervals, second=intervals)
def test_base_tags_arrive_in_start_order(kind, executor, first, second):
    relations = [_relation("R1", first), _relation("R2", second)]
    flagged = (lambda row: row.rid % 5 == 0) if kind == "cells" else None
    keep = (lambda row: row.rid % 3 != 0) if kind == "cells" else None
    mappers = _mappers(kind, flagged, keep)
    fs = InMemoryFileSystem()
    for relation in relations:
        fs.write(f"in/{relation.name}", relation.rows)
    reducer = ArrivalReducer()
    conf = JobConf(
        name="arrival",
        inputs=[
            InputSpec(f"in/{relation.name}", mapper, relation)
            for relation, mapper in zip(relations, mappers)
        ],
        reducer=reducer,
        output="out",
        num_reduce_tasks=3,
    )
    # Fault-free whatever the environment says: the reducer records what
    # it sees on itself, and a retried task's attempts run on copies.
    run_job(fs, conf, executor=executor, workers=2, faults=False)

    codec = KEY_CODECS[mappers[0].columnar_key_kind]
    arrived = {}
    for key, tag, gids, starts in reducer.seen:
        segment = ("R1", "R2").index(tag)
        rows = gids & 0xFFFFFFFF
        assert ((gids >> 32) == segment).all()
        # Non-decreasing by start, ties in the relation's row order.
        assert (starts == relations[segment].columns("I").starts[rows]).all()
        assert all(
            (a, i) <= (b, j)
            for a, b, i, j in zip(starts[:-1], starts[1:], rows[:-1], rows[1:])
        )
        arrived.setdefault(key, []).extend(gids.tolist())
    expected = {}
    for segment, (mapper, relation) in enumerate(zip(mappers, relations)):
        for code, gids in _expected(mapper, relation, segment).items():
            expected.setdefault(codec.decode(code), []).extend(gids)
    assert {k: sorted(v) for k, v in arrived.items()} == {
        k: sorted(v) for k, v in expected.items()
    }


def test_a_sorted_relation_is_mapped_as_it_is():
    """A relation whose rows are in start order already needs no
    permutation: its start order is ``None``."""
    ordered = Relation.of_intervals("R", [Interval(s, s + 2) for s in (0, 1, 1, 4)])
    unordered = Relation.of_intervals("R", [Interval(s, s + 2) for s in (4, 1, 0, 1)])
    mapper = _mappers("project", None, None)[0]
    assert mapper.start_order(list(ordered.rows), ordered) is None
    assert mapper.start_order(list(unordered.rows), unordered).tolist() == [2, 1, 3, 0]
    # Memoised on the relation's columns: the same array twice.
    assert mapper.start_order(None, unordered) is mapper.start_order(None, unordered)
    # Rows no relation stands behind are read as they are.
    assert mapper.start_order(list(unordered.rows)) is None


# ----------------------------------------------------------------------
# The census.
# ----------------------------------------------------------------------

_task = threading.local()


@pytest.fixture
def reduce_sorts(monkeypatch):
    """Per reduce task run, ``(groups, keys of every argsort it made)``."""
    tasks = []
    lock = threading.Lock()
    argsort, core = np.argsort, runner._reduce_task_core

    def counted_argsort(keys, *args, **kwargs):
        sorts = getattr(_task, "sorts", None)
        if sorts is not None:
            sorts.append(np.array(keys, copy=True))
        return argsort(keys, *args, **kwargs)

    def traced_core(reducer, groups, faults):
        _task.sorts = []
        try:
            return core(reducer, groups, faults)
        finally:
            with lock:
                tasks.append((groups, _task.sorts))
            _task.sorts = None

    monkeypatch.setattr(np, "argsort", counted_argsort)
    monkeypatch.setattr(runner, "_reduce_task_core", traced_core)
    return tasks


def _base_tag_starts(group):
    """The starts of each base-relation tag of a group, as they arrived."""
    sources = group.store.sources()
    for code in np.unique(group.tag_codes).tolist():
        rows = np.flatnonzero(group.tag_codes == code)
        if isinstance(sources[int(group.gids[rows[0]]) >> 32], Relation):
            yield group.starts[rows]


def _follows(keys, column):
    """Whether ``keys`` are ``column`` at ascending positions: the tag's
    column itself, a restriction of it, or its rows in arrival order."""
    if keys.dtype != column.dtype or len(keys) < 2:
        return False
    remaining = iter(column.tolist())
    return all(any(key == value for value in remaining) for key in keys.tolist())


@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize(
    "algorithm, query", [case[:2] for case in CENSUS], ids=[case[0] for case in CENSUS]
)
def test_reduce_tasks_sort_no_base_tag_by_start(algorithm, query, executor, reduce_sorts):
    data = make_dataset(query.relations, 60, seed=21)
    execute(query, data, algorithm, num_partitions=4, executor=executor, workers=2)
    tags = sorts = 0
    for groups, keys in reduce_sorts:
        columns = [c for _, group in groups for c in _base_tag_starts(group) if len(c) > 1]
        tags += len(columns)
        sorts += sum(1 for k in keys for c in columns if _follows(k, c))
    assert tags > 0  # the census has something to count
    assert sorts == 0


def test_the_census_data_is_not_in_start_order():
    """The census's relations are not in start order to begin with, so
    every tag it finds sorted was put in order on the map side."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=21)
    for relation in data.values():
        starts = relation.columns("I").starts
        assert not (starts[1:] >= starts[:-1]).all()
