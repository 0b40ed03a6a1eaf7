"""What a job commits between cycles, as an index-column block.

The flag cycle commits its ``(relation, row, flagged)`` records as a
flag :class:`~repro.columnar.batch.IndexBlock` — relation codes, row
indices into the relations and flags — and every join job its tuples as
a tuple block, one row-index column per member: partial tuples
``((relation, row), ...)`` between cycles, ``Row`` tuples at the end.
The next cycle reads a block back as columns.  Whatever reads it as
records (``list()``, a file system, a user job's mapper) must see
exactly the records it stands for, in order; whatever reads it as
columns must see the relations' own; and a file read back as records
must rebuild the block it was written from.
"""

from __future__ import annotations

import base64
import json
import pickle

import numpy as np
import pytest

from repro import Interval, Relation, reference_join
from repro.columnar.batch import IndexBlock
from repro.core.algorithms.rccis import RouteMapper
from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery, Term
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
    return IndexBlock(names, [data[name] for name in names], rows, codes, flagged)


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
    assert [job.name for job in recorder.job_results] == ["rccis-flag", "rccis-join"]
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
    assert [job.name for job in recorder.job_results] == ["rccis-flag", "rccis-join"]
    assert isinstance(fs.read_dir("rccis/flags"), IndexBlock)
    assert sorted(result.tuple_ids()) == sorted(
        reference_join(COLOCATION, data).tuple_ids()
    )
    assert len(result) > 0


class TestTupleBlocks:
    @pytest.fixture
    def data(self):
        return make_dataset(("R1", "R2"), 5, seed=3)

    def block(self, data, labelled=True):
        rows = [[4, 0], [1, 1], [1, 3]]
        return IndexBlock(("R2", "R1"), (data["R2"], data["R1"]), rows, labelled=labelled)

    def test_records_are_partials_or_join_tuples(self, data):
        r1, r2 = data["R1"].rows, data["R2"].rows
        partials = [(("R2", r2[4]), ("R1", r1[0])), (("R2", r2[1]), ("R1", r1[1])),
                    (("R2", r2[1]), ("R1", r1[3]))]
        assert list(self.block(data)) == partials
        assert self.block(data)[-1] == partials[-1]
        bare = [tuple(row for _, row in partial) for partial in partials]
        assert list(self.block(data, labelled=False)) == bare
        assert self.block(data).tuples() == bare
        assert pickle.loads(pickle.dumps(self.block(data))) == partials

    def test_select_take_and_concat(self, data):
        block = self.block(data)
        selected = block.select(["R1", "R2"], labelled=False)
        assert selected.names == ("R1", "R2")
        assert list(selected) == [(b, a) for a, b in block.tuples()]
        assert list(block.take(np.array([False, True, True]))) == list(block)[1:]
        assert list(IndexBlock.concat([block, block.take([0])])) == list(block) + list(block)[:1]
        with pytest.raises(ValueError, match="other relations"):
            IndexBlock.concat([block, self.block(data, labelled=False)])

    def test_term_columns_are_the_members_own(self, data):
        block = self.block(data)
        columns = block.term_columns(Term("R1", "I"))
        want = data["R1"].columns("I")
        assert columns.starts.tolist() == want.starts[[0, 1, 3]].tolist()
        assert columns.ends.tolist() == want.ends[[0, 1, 3]].tolist()

    @pytest.mark.parametrize("labelled", [True, False])
    def test_records_rebuild_the_block(self, data, labelled):
        block = self.block(data, labelled)
        relations = {"R2": data["R2"], "R1": data["R1"]}
        again = IndexBlock.from_records(list(block), relations)
        assert (again.names, again.labelled) == (block.names, labelled)
        assert again.rows.tolist() == block.rows.tolist()
        empty = IndexBlock.from_records([], relations)
        assert (len(empty), empty.names) == (0, ("R2", "R1"))

    def test_flag_records_rebuild_the_block(self, data):
        block = _block(data, [1, 0, 1], [4, 0, 2], [True, False, False])
        again = IndexBlock.from_records(list(block), {name: data[name] for name in sorted(data)})
        assert list(again) == list(block)
        assert again.codes.tolist() == [1, 0, 1] and again.rows[:, 0].tolist() == [4, 0, 2]


#: The plans whose every file a ``LocalFileSystem`` holds as records.
LOCAL_PLANS = {
    "rccis": COLOCATION,
    "two_way_cascade": COLOCATION,
    "pasm": IntervalJoinQuery.parse([("R1", "overlaps", "R2"), ("R2", "before", "R3")]),
    "fcts": IntervalJoinQuery.parse([("R1", "overlaps", "R2"), ("R2", "before", "R3")]),
    "fstc": IntervalJoinQuery.parse([("R1", "before", "R2"), ("R2", "overlaps", "R3")]),
}

#: A codec that stores any record: pickled, as a JSON string.
PICKLING = dict(
    encode=lambda record: base64.b64encode(pickle.dumps(record)).decode("ascii"),
    decode=lambda text: pickle.loads(base64.b64decode(text)),
)


def _shape(record):
    """A record's shape: ``row``, a flag record, a partial tuple (its
    relations, in order) or a join tuple (its width)."""
    if isinstance(record, Row):
        return "row"
    if isinstance(record[0], str) and len(record) == 3 and isinstance(record[1], Row):
        return ("flag", type(record[2]))
    if all(isinstance(member, tuple) and isinstance(member[1], Row) for member in record):
        return ("partial", tuple(name for name, _ in record))
    if all(isinstance(member, Row) for member in record):
        return ("tuple", len(record))
    return type(record[0]).__name__


@pytest.mark.parametrize("algorithm", sorted(LOCAL_PLANS))
def test_a_local_file_system_holds_every_file_as_records(algorithm, tmp_path):
    """Each file of the plan holds the records its blocks stand for —
    ``(relation, row, flagged)``, partials in bound order, ``Row``
    tuples — and each derived input is rebuilt from them."""
    query = LOCAL_PLANS[algorithm]
    data = make_dataset(query.relations, 40, seed=5, max_length=60)
    fs = LocalFileSystem(str(tmp_path), **PICKLING)
    result = execute(query, data, algorithm, num_partitions=4, fs=fs)
    want = reference_join(query, data).tuple_ids()
    assert len(want) > 0 and sorted(result.tuple_ids()) == sorted(want)

    shapes = {}
    for path in fs.list_prefix(""):
        directory = path.rsplit("/part-", 1)[0]
        shapes.setdefault(directory, set()).update(map(_shape, fs.read(path)))
    relations = query.relations
    expected = {f"input/{name}": {"row"} for name in relations}
    if algorithm == "rccis":
        expected["rccis/flags"] = {("flag", bool)}
        expected["rccis/output"] = {("tuple", 3)}
    elif algorithm == "two_way_cascade":
        expected["cascade/step-01"] = {("partial", ("R1", "R2"))}
        expected["cascade/step-02"] = {("partial", ("R1", "R2", "R3"))}
    elif algorithm == "fcts":
        expected["fcts/component-0"] = {("partial", ("R1", "R2"))}
        expected["fcts/component-1"] = {("partial", ("R3",))}
        expected["fcts/output"] = {("partial", relations)}
    elif algorithm == "fstc":
        expected["fstc/seq"] = {("partial", ("R1", "R2"))}
        expected["fstc/step-01"] = {("partial", ("R1", "R2", "R3"))}
    else:
        expected["pasm/output"] = {("tuple", 3)}
    assert {path: shapes[path] for path in expected} == expected
