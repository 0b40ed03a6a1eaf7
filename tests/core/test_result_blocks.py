"""A run's result is its output's row-index blocks.

``JoinResult`` holds the part blocks the final reduce tasks committed;
``len``, ``tuple_ids()``, ``same_output`` and ``validate_result`` read
their columns, and ``.tuples`` builds the ``Row`` tuples on first
access — once, under a lock and a collector pause, letting each block
go as its tuples are built.  These tests pin that: the tuples equal the
concatenated block's, element for element; the column readers build no
``Row`` tuple; concurrent readers build once; the build starts no
collection; and a result survives ``pickle`` and ``deepcopy`` before
and after its tuples are built.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import pytest

from repro.columnar.batch import IndexBlock
from repro.core.executor import execute
from repro.core.planner import ALGORITHMS
from repro.core.reference import reference_join
from repro.core.results import ExecutionMetrics, JoinResult
from repro.core.schema import Relation, Row
from repro.core.validation import ValidationError, validate_result
from repro.intervals.interval import Interval

from tests.conftest import make_dataset
from tests.core.test_gc_pause import CASES, COLOCATION, _collections_started


def _run(name, rows=None):
    """``name``'s gc-pause case at seed 0 — a third of its rows unless
    told otherwise — run serially: ``(query, data, result)``."""
    query, default_rows = CASES[name]
    data = make_dataset(query.relations, rows or default_rows // 3, seed=0)
    return query, data, execute(
        query, data, algorithm=name, num_partitions=4, executor="serial"
    )


@pytest.fixture
def built(monkeypatch):
    """Counts the ``IndexBlock.tuples`` calls — every ``Row`` tuple of
    a result is built by one."""
    calls = []
    tuples = IndexBlock.tuples

    def counted(block, *args, **kwargs):
        calls.append(len(block))
        return tuples(block, *args, **kwargs)

    monkeypatch.setattr(IndexBlock, "tuples", counted)
    return calls


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_the_tuples_are_the_concatenated_blocks_tuples(name):
    query, _, result = _run(name)
    whole = IndexBlock.concat([
        block.select(query.relations, labelled=False) for block in result.blocks()
    ])
    expected = whole.tuples()
    assert len(result) == len(expected) > 0
    assert result.tuples == expected


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_the_column_readers_build_no_row_tuple(name, built):
    query, data, result = _run(name)
    reference = reference_join(query, data)
    assert len(result) == len(reference) > 0
    assert result.tuple_ids() == reference.tuple_ids()
    assert result.same_output(reference) and reference.same_output(result)
    validate_result(result, data)
    validate_result(reference, data)
    str(result)
    assert built == []
    assert len(result.tuples) == len(result)
    assert sum(built) == len(result)


def test_building_the_tuples_starts_no_collection():
    _, _, result = _run("pasm", rows=CASES["pasm"][1])
    assert len(result) >= 10_000
    tuples, started = _collections_started(lambda: result.tuples)
    assert len(tuples) == len(result)
    assert started == []


def test_concurrent_readers_build_the_tuples_once(built):
    """Eight readers (more than the cores), switching every
    microsecond: one build, and every reader gets its list."""
    _, _, result = _run("rccis")
    parts = len(result.blocks())
    assert parts > 1
    readers = 8
    barrier = threading.Barrier(readers)
    lists, counts = [], []

    def read():
        barrier.wait()
        lists.append(result.tuples)
        counts.append(len(result.tuple_ids()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(lists) == readers and all(tuples is lists[0] for tuples in lists)
    assert counts == [len(result)] * readers
    assert len(built) == parts


def test_a_build_that_fails_part_way_leaves_the_result_whole(monkeypatch):
    """The second block's build appends some tuples, then raises: the
    result still reads every tuple, and the next access builds the
    list a clean build would."""
    query, data, result = _run("rccis")
    assert len(result.blocks()) > 2
    expected = _run("rccis")[2].tuples
    ids = result.tuple_ids()
    tuples, calls = IndexBlock.tuples, []

    def failing(block, names=None, into=None, reverse=False):
        calls.append(len(block))
        tuples(block, names, into, reverse)
        if len(calls) == 2:
            raise MemoryError("the second block")
        return into

    monkeypatch.setattr(IndexBlock, "tuples", failing)
    with pytest.raises(MemoryError, match="the second block"):
        result.tuples
    monkeypatch.setattr(IndexBlock, "tuples", tuples)
    assert result.tuple_ids() == ids
    assert result.same_output(reference_join(query, data))
    validate_result(result, data)
    assert result.tuples == expected
    assert len(result.tuples) == len(result)


def test_a_built_result_reads_its_columns_from_its_tuples():
    query, data, result = _run("fstc")
    ids = result.tuple_ids()
    result.tuples
    (held,) = result.blocks()
    assert held.names == query.relations
    assert result.tuple_ids() == ids
    assert result.same_output(reference_join(query, data))
    validate_result(result, data)


@pytest.mark.parametrize("clone", [
    lambda result: pickle.loads(pickle.dumps(result)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_a_result_survives_pickling_before_and_after_its_tuples(clone):
    _, data, result = _run("fstc")
    before = clone(result)
    assert all(isinstance(block, IndexBlock) for block in before.blocks())
    ids, tuples = result.tuple_ids(), result.tuples
    after = clone(result)
    for copied in (before, after):
        assert len(copied) == len(result)
        assert copied.tuple_ids() == ids
        assert copied.tuples == tuples
        assert copied.metrics == result.metrics


def _renumbered(relation, offset):
    """``relation`` with every rid moved by ``offset``."""
    return Relation(relation.name, [Row(row.rid + offset, row.data) for row in relation.rows])


def test_rids_past_int64_read_as_objects():
    query, _ = CASES["two_way"]
    data = {
        name: _renumbered(relation, 2**70)
        for name, relation in make_dataset(query.relations, 60, seed=1).items()
    }
    result = execute(query, data, algorithm="two_way", num_partitions=4)
    assert result.rid_columns()[0].dtype == object
    assert result.tuple_ids() == sorted(tuple(row.rid for row in t) for t in result.tuples)
    assert result.same_output(reference_join(query, data))
    validate_result(result, data)


def test_rids_either_side_of_int64_read_as_objects():
    """``-1`` beside rids from 2**63 up: numpy would make them one
    float column, in which neighbouring rids compare equal."""
    query, _ = CASES["two_way"]
    data = {
        name: Relation(name, [
            Row(-1 if i == 0 else 2**63 + i, row.data) for i, row in enumerate(relation.rows)
        ])
        for name, relation in make_dataset(query.relations, 60, seed=1).items()
    }
    result = execute(query, data, algorithm="two_way", num_partitions=4)
    assert all(column.dtype == object for column in result.rid_columns())
    assert result.tuple_ids() == sorted(tuple(row.rid for row in t) for t in result.tuples)
    assert result.same_output(reference_join(query, data))
    validate_result(result, data)


def test_membership_of_equal_but_distinct_relations():
    query, data, result = _run("rccis")
    twins = {name: Relation(name, relation.rows) for name, relation in data.items()}
    validate_result(result, twins)
    moved = dict(twins, R2=_renumbered(data["R2"], 1))
    with pytest.raises(ValidationError, match="is not a row of relation 'R2'"):
        validate_result(result, moved)


def test_a_tuple_result_of_another_arity_is_refused():
    data = make_dataset(COLOCATION.relations, 5, seed=4)
    tampered = JoinResult(
        COLOCATION, [tuple(r.rows[0] for r in data.values()), (data["R1"].rows[0],)],
        ExecutionMetrics(algorithm="tampered"),
    )
    with pytest.raises(ValidationError, match=r"tuple #1 has arity 1, expected 3"):
        validate_result(tampered)


def test_an_unsound_block_names_its_tuple():
    data = {
        "R1": Relation.of_intervals("R1", [Interval(0, 5), Interval(10, 12)]),
        "R2": Relation.of_intervals("R2", [Interval(3, 8), Interval(20, 30)]),
    }
    query, _ = CASES["two_way"]
    block = IndexBlock(query.relations, data.values(), [[0, 0], [1, 1]], labelled=False)
    result = JoinResult.of_blocks(query, [block], ExecutionMetrics(algorithm="b"))
    with pytest.raises(ValidationError, match=r"tuple \(1, 1\) violates"):
        validate_result(result, data)
