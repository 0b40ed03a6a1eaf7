"""RCCIS's flag file as an index-column block.

The flag cycle commits its ``(relation, row, flagged)`` records as an
:class:`~repro.columnar.batch.IndexBlock` — relation codes, row indices
into the relations and flags — and the join cycle reads it back as
columns.  Whatever reads it as records (``list()``, a file system, a
user job's mapper) must see exactly the records it stands for, in
order; whatever reads it as columns must see the relations' own.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro import Interval, Relation, reference_join
from repro.columnar.batch import IndexBlock
from repro.core.algorithms.rccis import RouteMapper
from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Row
from repro.intervals.partitioning import Partitioning
from repro.mapreduce import InMemoryFileSystem, LocalFileSystem
from repro.obs import TraceRecorder

from tests.conftest import make_dataset

COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)

#: How a query runs: every executor, and the chaos leg.
RUNS = {
    "serial": dict(executor="serial"),
    "threads": dict(executor="threads", workers=2),
    "processes": dict(executor="processes", workers=2),
    "faults": dict(executor="serial", faults=2014, max_attempts=3),
}


def _block(data, codes, rows, flagged):
    names = sorted(data)
    return IndexBlock(names, [data[name] for name in names], codes, rows, flagged)


def _records(data, codes, rows, flagged):
    names = sorted(data)
    return [
        (names[code], data[names[code]].rows[row], flag)
        for code, row, flag in zip(codes, rows, flagged)
    ]


def _past_float64(relation):
    """``relation`` plus one row whose end is not a float64."""
    extra = Row.make(len(relation), {"I": Interval(1.5, 2**53 + 1)})
    return Relation(relation.name, [*relation.rows, extra])


class TestRecords:
    CODES, ROWS, FLAGGED = [1, 0, 1, 1], [4, 0, 2, 4], [True, False, False, True]

    @pytest.fixture
    def data(self):
        return make_dataset(("R1", "R2"), 5, seed=1)

    def test_len_indexing_and_iteration_are_the_records(self, data):
        block = _block(data, self.CODES, self.ROWS, self.FLAGGED)
        want = _records(data, self.CODES, self.ROWS, self.FLAGGED)
        assert len(block) == len(want)
        assert list(block) == want
        assert [block[i] for i in range(len(want))] == want
        assert block[-1] == want[-1]
        with pytest.raises(IndexError):
            block[len(want)]
        # The relations' own rows, and plain bools.
        for (_, row, flag), (_, own, _) in zip(block, want):
            assert row is own and type(flag) is bool

    def test_concat_is_the_records_in_order(self, data):
        first = _block(data, self.CODES, self.ROWS, self.FLAGGED)
        second = _block(data, [0], [3], [True])
        empty = _block(data, [], [], [])
        joined = IndexBlock.concat([first, empty, second])
        assert list(joined) == list(first) + list(second)
        other = make_dataset(("R1", "R2"), 5, seed=1)
        with pytest.raises(ValueError, match="other relations"):
            IndexBlock.concat([first, _block(other, [0], [0], [False])])

    def test_an_empty_relation(self, data):
        data = dict(data, R1=Relation("R1", []))
        block = _block(data, [1, 1], [0, 3], [False, True])
        assert list(block) == _records(data, [1, 1], [0, 3], [False, True])
        empty = _block(data, [], [], [])
        assert len(empty) == 0 and list(empty) == []
        assert len(IndexBlock.concat([empty, empty])) == 0
        columns = empty.columns({"R1": "I", "R2": "I"})
        assert columns.starts.dtype == np.float64 and len(columns.starts) == 0
        assert empty.row_column().dtype == object

    def test_pickles_as_its_records(self, data):
        block = _block(data, self.CODES, self.ROWS, self.FLAGGED)
        assert pickle.loads(pickle.dumps(block)) == list(block)

    def test_columns_are_gathered_from_the_relations_own(self, data):
        block = _block(data, self.CODES, self.ROWS, self.FLAGGED)
        rows = [row for _, row, _ in block]
        columns = block.columns({"R1": "I", "R2": "I"})
        assert columns.starts.tolist() == [row.value("I").start for row in rows]
        assert columns.ends.tolist() == [row.value("I").end for row in rows]
        assert all(a is b for a, b in zip(block.row_column(), rows))

    def test_an_endpoint_past_float64_makes_object_columns(self, data):
        """Read as columns, such a block encodes as the exact values."""
        data = dict(data, R2=_past_float64(data["R2"]))
        block = _block(data, [1, 0], [5, 0], [True, False])
        ends = block.columns({"R1": "I", "R2": "I"}).ends
        assert ends.dtype == object and ends[0] == 2**53 + 1
        mapper = RouteMapper({"R1": "I", "R2": "I"}, Partitioning.uniform(0, 300, 4))
        assert mapper.encode_intervals(block, block)[1].tolist() == ends.tolist()


def _flag_records(data, partitions):
    """The clean serial run's flag records, its ``rccis/flags`` parts
    read one by one (the flagging decision itself is held to a brute
    force in ``tests/core/test_crossing.py``)."""
    fs = InMemoryFileSystem()
    execute(COLOCATION, data, "rccis", num_partitions=partitions, fs=fs)
    return [record for part in fs.list_prefix("rccis/flags") for record in fs.read(part)]


def _flag_files(data, partitions, run):
    """The flag records of a clean serial run, and a run's flag
    directory read back whole."""
    fs = InMemoryFileSystem()
    recorder = TraceRecorder()
    result = execute(
        COLOCATION, data, "rccis", num_partitions=partitions, fs=fs,
        observer=recorder, **run,
    )
    assert sorted(result.tuple_ids()) == sorted(
        reference_join(COLOCATION, data).tuple_ids()
    )
    assert [job.data_plane for job in recorder.job_results] == ["columnar"] * 2
    return _flag_records(data, partitions), fs.read_dir("rccis/flags")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_flag_file_reads_back_as_the_records_arms(run):
    """Read back whole, every run's flag directory is one block whose
    records are the clean serial run's, part after part."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
    records, block = _flag_files(data, 5, RUNS[run])
    assert isinstance(block, IndexBlock)
    assert list(block) == records
    # Each row once, at the partition it starts in.
    assert len(block) == sum(map(len, data.values()))


@pytest.mark.parametrize(
    "case",
    ["partition-without-local-rows", "more-partitions-than-rows", "an-empty-relation"],
)
def test_edge_shaped_flag_files(case):
    if case == "partition-without-local-rows":
        # Partitions 1 and 2 of 4 only see R1's long interval, which
        # starts in partition 0: their blocks are empty.
        data = {
            "R1": Relation.of_intervals("R1", [Interval(0, 100)]),
            "R2": Relation.of_intervals("R2", [Interval(1, 2), Interval(90, 95)]),
            "R3": Relation.of_intervals("R3", [Interval(1, 3), Interval(92, 99)]),
        }
        partitions = 4
    elif case == "more-partitions-than-rows":
        data = make_dataset(("R1", "R2", "R3"), 2, seed=3, max_length=150)
        partitions = 16
    else:
        # Provably empty: the query runs no job, so writes no flag file.
        data = make_dataset(("R1", "R2", "R3"), 20, seed=3)
        data["R3"] = Relation("R3", [])
        recorder = TraceRecorder()
        result = execute(COLOCATION, data, "rccis", num_partitions=4, observer=recorder)
        assert (len(result), recorder.job_results) == (0, [])
        return
    records, block = _flag_files(data, partitions, RUNS["serial"])
    assert isinstance(block, IndexBlock)
    assert list(block) == records
    assert len(block) == sum(map(len, data.values()))


def _encode(record):
    relation, row, flagged = record
    return [relation, row.rid, [[name, [v.start, v.end]] for name, v in row.data], flagged]


def test_a_block_writes_the_bytes_of_its_records(tmp_path):
    data = make_dataset(("R1", "R2"), 30, seed=5)
    rng = np.random.default_rng(5)
    block = _block(
        data, rng.integers(0, 2, 50), rng.integers(0, 30, 50), rng.random(50) < 0.5
    )
    fs = LocalFileSystem(str(tmp_path), encode=_encode)
    assert fs.write("block", block) == fs.write("list", list(block)) == 50
    assert (tmp_path / "block").read_bytes() == (tmp_path / "list").read_bytes()
    assert json.loads((tmp_path / "block").read_text().splitlines()[0])[0] in data


def test_an_endpoint_past_float64_joins_on_columns():
    """The flag cycle reads ``object`` columns and writes its block; the
    join cycle gathers the relations' ``object`` columns through it."""
    data = make_dataset(("R1", "R2", "R3"), 30, seed=2)
    data["R2"] = _past_float64(data["R2"])
    fs = InMemoryFileSystem()
    recorder = TraceRecorder()
    result = execute(
        COLOCATION, data, "rccis", num_partitions=4, observer=recorder, fs=fs
    )
    assert [(job.name, job.data_plane) for job in recorder.job_results] == [
        ("rccis-flag", "columnar"),
        ("rccis-join", "columnar"),
    ]
    assert isinstance(fs.read_dir("rccis/flags"), IndexBlock)
    assert sorted(result.tuple_ids()) == sorted(
        reference_join(COLOCATION, data).tuple_ids()
    )
    assert len(result) > 0
