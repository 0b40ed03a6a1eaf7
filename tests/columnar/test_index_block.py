"""What a job commits between cycles, as an index-column block.

The flag cycle commits its ``(relation, row, flagged)`` records as a
flag :class:`~repro.columnar.batch.IndexBlock` — relation codes, row
indices into the relations and flags — and every join job its tuples as
a tuple block, one row-index column per member: partial tuples
``((relation, row), ...)`` between cycles, ``Row`` tuples at the end.
The next cycle reads a block back as columns.  Whatever reads it as
records (``list()``, a file system, a user job's mapper) must see
exactly the records it stands for, in order; whatever reads it as
columns must see the relations' own; and every file a plan commits
between cycles is such a block.  A join's block is
column-major — each member's rows one contiguous column, on every
executor — and ``PayloadStore.block`` refuses a gid column that spans
two inputs.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro import Interval, Relation, reference_join
from repro.columnar.batch import IndexBlock, PayloadStore, _tuple_chunk
from repro.core.algorithms.rccis import RouteMapper
from repro.core.executor import execute
from repro.core.planner import ALGORITHMS
from repro.core.query import IntervalJoinQuery, Term
from repro.core.schema import Row
from repro.errors import MapReduceError
from repro.intervals.partitioning import Partitioning
from repro.mapreduce import InMemoryFileSystem
from repro.obs import TraceRecorder

from tests.conftest import make_dataset
from tests.core.test_gc_pause import CASES

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

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_tuples_across_chunk_boundaries(self, arity):
        """Built a chunk at a time, the tuples are one ``zip`` of the
        members' takes, whatever the cut, and each member is its
        relation's own ``Row``."""
        chunk = _tuple_chunk(arity)
        names = [f"R{i}" for i in range(arity)]
        data = make_dataset(names, 7, seed=arity)
        relations = [data[name] for name in names]
        rng = np.random.default_rng(arity)
        for length in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            rows = rng.integers(0, 7, size=(length, arity))
            block = IndexBlock(names, relations, rows, labelled=False)
            tuples = block.tuples()
            assert tuples == list(zip(*(
                relation.row_column()[at] for relation, at in zip(relations, rows.T)
            )))
            assert len(tuples) == length
            for record, at in zip(tuples, rows.tolist()):
                assert all(
                    member is relation.rows[i]
                    for member, relation, i in zip(record, relations, at)
                )

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

    def test_an_empty_block_holds_no_tuple_of_its_relations(self, data):
        """What a derived input whose every file is empty reads as."""
        empty = IndexBlock.empty({"R2": data["R2"], "R1": data["R1"]})
        assert (len(empty), list(empty), empty.names, empty.labelled) == (0, [], ("R2", "R1"), True)
        assert empty.relations == (data["R2"], data["R1"]) and empty.rows.shape == (0, 2)


#: Plans with a file between cycles, or a record-list file.
PLANS = {
    "rccis": COLOCATION,
    "two_way_cascade": COLOCATION,
    "pasm": IntervalJoinQuery.parse([("R1", "overlaps", "R2"), ("R2", "before", "R3")]),
    "fcts": IntervalJoinQuery.parse([("R1", "overlaps", "R2"), ("R2", "before", "R3")]),
    "fstc": IntervalJoinQuery.parse([("R1", "before", "R2"), ("R2", "overlaps", "R3")]),
}


def _shape(stored):
    """A stored file's shape: its relation's name; for a block its
    members, whether it is labelled and whether it has flag columns; for
    a record list the width of its records."""
    if isinstance(stored, Relation):
        return ("relation", stored.name)
    if isinstance(stored, IndexBlock):
        flags = (stored.codes is not None, stored.flagged is not None)
        return ("block", stored.names, stored.labelled, flags)
    assert isinstance(stored, list)
    return ("records", frozenset(map(len, stored)))


@pytest.mark.parametrize("algorithm", sorted(PLANS))
def test_every_file_between_cycles_is_a_block(algorithm):
    """Each derived file of the plan is a block — flags with their
    relation codes and flag column, partials labelled in bound order,
    the output's tuples bare — and PASM's marks and flags record lists."""
    query = PLANS[algorithm]
    data = make_dataset(query.relations, 40, seed=5, max_length=60)
    fs = InMemoryFileSystem()
    result = execute(query, data, algorithm, num_partitions=4, fs=fs)
    want = reference_join(query, data).tuple_ids()
    assert len(want) > 0 and sorted(result.tuple_ids()) == sorted(want)

    shapes = {}
    for path in fs.list_prefix(""):
        stored = fs.parts(path)[0]
        if len(stored):  # a reduce task with no output commits an empty list
            shapes.setdefault(path.rsplit("/part-", 1)[0], set()).add(_shape(stored))
    relations = query.relations
    expected = {f"input/{name}": {("relation", name)} for name in relations}
    partials = lambda *names: {("block", names, True, (False, False))}
    tuples = {("block", relations, False, (False, False))}
    if algorithm == "rccis":
        expected["rccis/flags"] = {("block", relations, True, (True, True))}
        expected["rccis/output"] = tuples
    elif algorithm == "two_way_cascade":
        expected["cascade/step-01"] = partials("R1", "R2")
        expected["cascade/step-02"] = partials("R1", "R2", "R3")
    elif algorithm == "fcts":
        expected["fcts/component-0"] = partials("R1", "R2")
        expected["fcts/component-1"] = partials("R3")
        expected["fcts/output"] = partials(*relations)
    elif algorithm == "fstc":
        expected["fstc/seq"] = partials("R1", "R2")
        expected["fstc/step-01"] = partials("R1", "R2", "R3")
    else:
        expected["pasm/flags"] = {("records", frozenset({3}))}
        expected["pasm/marks"] = {("records", frozenset({2}))}
        expected["pasm/output"] = tuples
    assert shapes == expected


#: Per algorithm: a query whose every tuple needs ``R1`` before or
#: overlapping an ``R2`` row, and the derived input a later cycle reads
#: that comes out empty when ``R1`` lies past every other row.
EMPTY_DERIVED = {
    "two_way_cascade": (COLOCATION, "cascade/step-01"),
    "fcts": (PLANS["fcts"], "fcts/component-0"),
    "fstc": (PLANS["fstc"], "fstc/seq"),
    "pasm": (PLANS["pasm"], "pasm/marks"),
    "all_seq_matrix": (PLANS["pasm"], "all_seq_matrix/flags"),
}


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
@pytest.mark.parametrize("algorithm", sorted(EMPTY_DERIVED))
def test_an_empty_derived_input_reads_as_no_tuple(algorithm, executor):
    """A cycle whose input an earlier cycle committed only empty files
    to — a cascade step, an FCTS component, FSTC's sequence join, a
    flag or mark cycle — reads nothing and commits nothing, on every
    executor."""
    query, derived = EMPTY_DERIVED[algorithm]
    data = make_dataset(query.relations, 30, seed=3, max_length=40)
    data["R1"] = Relation.of_intervals(
        "R1", [Interval(i.start + 5000, i.end + 5000) for i in data["R1"].intervals()]
    )
    fs = InMemoryFileSystem()
    result = execute(
        query, data, algorithm, num_partitions=4, fs=fs, executor=executor, workers=2
    )
    assert len(result) == 0 and len(reference_join(query, data)) == 0
    files = fs.parts(derived)
    assert files and not any(map(len, files))


def test_a_derived_input_of_records_is_refused():
    """An input that names the relations it indexes reads back as a
    block of them, or as nothing: a file of records there is an error,
    not something to rebuild a block from."""
    from repro.mapreduce.job import InputSpec
    from repro.mapreduce.runner import run_job
    from tests.conftest import HELPER, HELPER_INPUT, helper_conf, helper_mapper

    fs = InMemoryFileSystem()
    fs.write(HELPER_INPUT, list(HELPER.rows))
    spec = InputSpec(HELPER_INPUT, helper_mapper(), {HELPER.name: HELPER})
    with pytest.raises(MapReduceError, match="is not a block of its relations"):
        run_job(fs, helper_conf(inputs=[spec]), faults=False)


# ----------------------------------------------------------------------
# Column-major blocks: what a join commits.
# ----------------------------------------------------------------------


class TestColumnMajor:
    @pytest.fixture
    def data(self):
        return make_dataset(("R1", "R2"), 5, seed=4)

    def store(self, data, sources):
        store = PayloadStore()
        for segment, source in enumerate(sources):
            store.add_segment(segment, source, None, source)
        return store

    @pytest.mark.parametrize("source", ["base", "block"])
    def test_a_column_spanning_two_segments_is_refused(self, data, source):
        """The first and last gid of the column share a segment; one in
        between does not."""
        if source == "base":
            sources, members = [data["R1"], data["R1"]], [["R1"]]
        else:
            partials = IndexBlock(("R1", "R2"), (data["R1"], data["R2"]), [[0, 1], [2, 3]])
            sources, members = [partials, partials], [["R1", "R2"]]
        store = self.store(data, sources)
        one = np.array([[1], [0], [1]], dtype=np.int64)
        assert len(store.block(one, members, True)) == 3
        two = np.array([[1], [(1 << 32) | 0], [1]], dtype=np.int64)
        with pytest.raises(MapReduceError, match="one input's relations"):
            store.block(two, members, True)

    def test_a_block_is_column_major_whatever_the_kernel_layout(self, data):
        store = self.store(data, [data["R1"], data["R2"]])
        gids = np.array([[4, (1 << 32) | 0], [0, (1 << 32) | 3], [2, (1 << 32) | 3]])
        for layout in (np.ascontiguousarray(gids), np.asfortranarray(gids)):
            block = store.block(layout, [["R1"], ["R2"]], False)
            assert block.rows.flags.f_contiguous
            assert block.rows.tolist() == [[4, 0], [0, 3], [2, 3]]
            relation, rows = block.member("R2")
            assert relation is data["R2"] and rows.flags.c_contiguous
            assert np.shares_memory(rows, block.rows)

    def test_pickle_and_deepcopy_are_the_records(self, data):
        store = self.store(data, [data["R1"], data["R2"]])
        gids = np.asfortranarray([[4, (1 << 32) | 0], [0, (1 << 32) | 3]])
        block = store.block(gids, [["R1"], ["R2"]], False)
        assert block.rows.flags.f_contiguous
        records = [(data["R1"].rows[4], data["R2"].rows[0]),
                   (data["R1"].rows[0], data["R2"].rows[3])]
        assert list(block) == records
        assert pickle.loads(pickle.dumps(block)) == records
        assert copy.deepcopy(block) == records
        # The array a pooled reduce task sends back keeps its layout.
        assert pickle.loads(pickle.dumps(gids)).flags.f_contiguous

    @pytest.mark.parametrize("executor", ["serial", "processes"])
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_algorithms_join_block_is_column_major(self, name, executor):
        query, _ = CASES[name]
        data = make_dataset(query.relations, 30, seed=6)
        result = execute(query, data, algorithm=name, num_partitions=4,
                         executor=executor, workers=2)
        assert len(result) > 0
        for block in result.blocks():
            assert block.rows.flags.f_contiguous, name
            for member in query.relations:
                _, rows = block.member(member)
                assert rows.flags.c_contiguous and np.shares_memory(rows, block.rows)
        assert result.same_output(reference_join(query, data))
