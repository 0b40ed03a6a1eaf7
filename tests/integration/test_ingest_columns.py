"""Columns in: a query over base relations reads the relations' own
endpoint columns, not their rows.

A ``Relation`` builds each attribute's endpoint columns once
(``Relation.columns``); partitioning, the columnar map side of every
input that *is* a base relation, and the reducers' output
materialisation (``PayloadStore.take`` over the relation's row column)
read those.  What is pinned here is the consequence: a second query on
the same relations never calls ``Row.interval`` — on any executor, with
or without a fault plan — outputs are the relations' own ``Row``
objects, and the thing tying an input to its relation (the input spec's
``source``) is never deep-copied per attempt nor pickled to a worker.
"""

from __future__ import annotations

import pytest

from repro import Interval, Relation, reference_join
from repro.core.algorithms.rccis import JoinReducer
from repro.core.algorithms.two_way import OperatorMapper
from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Row
from repro.errors import MapReduceError
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.mapreduce import InMemoryFileSystem, run_job
from repro.mapreduce.job import InputSpec, JobConf
from repro.obs import TraceRecorder

from tests.conftest import make_dataset

TWO_WAY = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)

#: How a query runs: every executor, and the chaos leg.
RUNS = {
    "serial": dict(executor="serial"),
    "threads": dict(executor="threads", workers=2),
    "processes": dict(executor="processes", workers=2),
    "faults": dict(executor="serial", faults=2014, max_attempts=3),
}

#: algorithm, query -> ``Row.interval`` calls allowed per input row in a
#: second query over the same relations.  RCCIS still reads each row
#: once, where its join cycle encodes the flag cycle's output records.
CENSUS = [
    ("two_way", TWO_WAY, 0),
    ("all_replicate", COLOCATION, 0),
    ("rccis", COLOCATION, 1),
]


@pytest.fixture
def interval_calls(monkeypatch):
    """A counter of ``Row.interval`` calls made in this process (the
    parent: it encodes every columnar map input and materialises every
    columnar reduce output, whatever the executor)."""
    calls = [0]
    interval = Row.interval

    def counted(self, attribute):
        calls[0] += 1
        return interval(self, attribute)

    monkeypatch.setattr(Row, "interval", counted)
    return calls


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize(
    "algorithm, query, per_row", CENSUS, ids=[case[0] for case in CENSUS]
)
def test_a_second_query_does_not_read_the_rows(
    algorithm, query, per_row, run, interval_calls
):
    data = make_dataset(query.relations, 60, seed=21)
    rows = sum(len(relation) for relation in data.values())
    want = reference_join(query, data).tuple_ids()

    interval_calls[0] = 0
    first = execute(query, data, algorithm, num_partitions=4, **RUNS[run])
    # The first query builds each relation's columns: one call per row,
    # where it was two (two_way: partitioning, encode) or three.
    assert interval_calls[0] <= (1 + per_row) * rows

    interval_calls[0] = 0
    second = execute(query, data, algorithm, num_partitions=4, **RUNS[run])
    assert interval_calls[0] <= per_row * rows
    if per_row == 0:
        assert interval_calls[0] == 0

    # Observed, the run also profiles its data for the plan prediction:
    # vector reductions over the same columns.
    interval_calls[0] = 0
    recorder = TraceRecorder()
    execute(
        query, data, algorithm, num_partitions=4, observer=recorder, **RUNS[run]
    )
    assert interval_calls[0] <= per_row * rows
    assert {job.data_plane for job in recorder.job_results} == {"columnar"}

    assert len(want) > 0
    assert sorted(first.tuple_ids()) == sorted(second.tuple_ids()) == sorted(want)


def test_a_self_join_builds_its_columns_once(interval_calls):
    """Aliases share the memo: three names for one base relation cost
    one pass over its rows."""
    base = make_dataset(("R1",), 50, seed=4)["R1"]
    data = {"R1": base, "R2": base.alias("R2"), "R3": base.alias("R3")}
    interval_calls[0] = 0
    result = execute(COLOCATION, data, "all_replicate", num_partitions=4)
    assert interval_calls[0] == len(base)
    assert len(result) > 0


@pytest.mark.parametrize(
    "algorithm, query, run",
    [
        ("two_way", TWO_WAY, "serial"),
        ("two_way", TWO_WAY, "processes"),
        ("all_replicate", COLOCATION, "threads"),
        ("rccis", COLOCATION, "serial"),
        ("rccis", COLOCATION, "faults"),
        ("two_way_cascade", COLOCATION, "serial"),
    ],
)
def test_output_tuples_hold_the_relations_own_rows(algorithm, query, run):
    """Every job of these plans is columnar, so no row ever travels: a
    gid comes back and the relation's row column resolves it."""
    data = make_dataset(query.relations, 40, seed=9)
    own = {
        name: {id(row) for row in relation.rows}
        for name, relation in data.items()
    }
    result = execute(query, data, algorithm, num_partitions=4, **RUNS[run])
    assert len(result) > 0
    for members in result.tuples:
        for name, row in zip(query.relations, members):
            assert id(row) in own[name]


class _Tripwire(Relation):
    """A relation that refuses to be copied or pickled."""

    def __deepcopy__(self, memo):
        raise AssertionError(f"relation {self.name!r} was deep-copied")

    def __reduce_ex__(self, protocol):
        raise AssertionError(f"relation {self.name!r} was pickled")


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize(
    "algorithm, query",
    [
        ("two_way", TWO_WAY),
        ("rccis", COLOCATION),
        ("two_way_cascade", COLOCATION),
        ("pasm", HYBRID),
    ],
)
def test_no_attempt_copies_or_pickles_a_relation(algorithm, query, run):
    """A fault plan deep-copies the mapper per in-process attempt and
    the pool pickles it on the records plane; the relation rides on the
    input spec, which neither does."""
    data = {
        name: _Tripwire(name, relation.rows)
        for name, relation in make_dataset(query.relations, 30, seed=13).items()
    }
    options = dict(RUNS[run], faults=2014, max_attempts=3)
    result = execute(query, data, algorithm, num_partitions=3, **options)
    assert sorted(result.tuple_ids()) == sorted(
        reference_join(query, data).tuple_ids()
    )


def test_a_source_of_another_length_is_refused():
    """The relation's columns stand in for the records unread, so an
    input spec naming the wrong relation must not get as far as a join."""
    rows = Relation.of_intervals("R1", [Interval(0, 1), Interval(2, 3)])
    other = Relation.of_intervals("R1", [Interval(0, 1)] * 3)
    fs = InMemoryFileSystem()
    fs.write("input/R1", rows.rows)
    fs.write("input/R2", rows.rows)
    parts = Partitioning.uniform(0, 4, 2)

    def mapper(name):
        return OperatorMapper(name, "I", parts, MapOperator.PROJECT)

    conf = JobConf(
        name="two-way",
        inputs=[
            InputSpec("input/R1", mapper("R1"), other),
            InputSpec("input/R2", mapper("R2"), rows),
        ],
        reducer=JoinReducer(TWO_WAY, {"R1": "I", "R2": "I"}, parts),
        output="out",
        num_reduce_tasks=2,
    )
    with pytest.raises(MapReduceError, match="2 records.*3 rows"):
        run_job(fs, conf)
    assert fs.list_prefix("out") == []


def test_one_endpoint_past_float64_keeps_the_job_on_records():
    """The relation's memoised column is ``object`` as soon as one
    endpoint is not a float64, and the plane decision reads that."""
    data = make_dataset(("R1", "R2"), 30, seed=2)
    rows = list(data["R1"].rows)
    rows.append(Row.make(len(rows), {"I": Interval(150.5, 2**53 + 1)}))
    data["R1"] = Relation("R1", rows)
    assert data["R1"].columns("I").ends.dtype == object
    assert data["R1"].columns("I").starts.dtype == float
    for _ in range(2):
        recorder = TraceRecorder()
        result = execute(TWO_WAY, data, "two_way", num_partitions=4, observer=recorder)
        (job,) = recorder.job_results
        assert (job.data_plane, job.data_plane_reason) == (
            "records", "endpoints-not-float64-exact",
        )
        assert sorted(result.tuple_ids()) == sorted(
            reference_join(TWO_WAY, data).tuple_ids()
        )
