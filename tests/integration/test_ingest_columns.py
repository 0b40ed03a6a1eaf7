"""Columns in: a query over base relations reads the relations' own
columns, not their rows.

A ``Relation`` is its columns, and builds each attribute's endpoint
columns once (``Relation.columns``); partitioning, the columnar map side
of every input that *is* a base relation, the flag and mark cycles'
routing (rid columns) and the result's rid readers read those.  What is
pinned here is the consequence: no query calls ``Row.interval``, and
building relations, querying them and validating a result construct no
``Row`` at all — on any executor, with or without a fault plan, and for
an exact prediction, which runs the same map and shuffle; nor do
``generate`` / ``save`` / ``load`` and ``repro run -o``.  Forced output
tuples hold the relations' own ``Row`` objects, and the thing tying an
input to its relation (the input spec's ``source``) is never deep-copied
per attempt nor pickled to a worker.
"""

from __future__ import annotations

import pytest

from repro import Interval, Relation, reference_join
from repro.cli import main
from repro.core.algorithms.rccis import JoinReducer
from repro.core.algorithms.two_way import OperatorMapper
from repro.core.executor import execute
from repro.core.planner import ALGORITHMS
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Row
from repro.core.tuning import PredictConfig, profile_data
from repro.core.validation import validate_result
from repro.errors import MapReduceError
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.io import load_relation, save_relation
from repro.mapreduce import InMemoryFileSystem, run_job
from repro.mapreduce.job import InputSpec, JobConf
from repro.obs import TraceRecorder
from repro.workloads.synthetic import SyntheticConfig, generate_relation

from tests.conftest import make_dataset

TWO_WAY = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)
SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)

#: How a query runs: every executor, and the chaos leg.
RUNS = {
    "serial": dict(executor="serial"),
    "threads": dict(executor="threads", workers=2),
    "processes": dict(executor="processes", workers=2),
    "faults": dict(executor="serial", faults=2014, max_attempts=3),
}

#: algorithm, query -> ``Row.interval`` calls allowed per input row in a
#: second query over the same relations.  None: every job commits its
#: output as index columns into the relations — RCCIS's flag file, the
#: cascade's and FSTC's partial tuples, FCTS's component joins — which the
#: next cycle reads back through the relations' own endpoint columns.
CENSUS = [
    ("two_way", TWO_WAY, 0),
    ("all_replicate", COLOCATION, 0),
    ("rccis", COLOCATION, 0),
    ("two_way_cascade", COLOCATION, 0),
    ("all_matrix", SEQUENCE, 0),
    ("all_seq_matrix", HYBRID, 0),
    ("pasm", HYBRID, 0),
    ("gen_matrix", HYBRID, 0),
    ("fcts", HYBRID, 0),
    ("fstc", HYBRID, 0),
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

    # An exact prediction runs the same map and shuffle, so a second one
    # reads no rows either.
    profile = profile_data(query, data)
    conf = PredictConfig(num_partitions=4, exact=True, data=data)
    predicted = ALGORITHMS[algorithm]().predict(query, profile, conf)
    interval_calls[0] = 0
    assert ALGORITHMS[algorithm]().predict(query, profile, conf) == predicted
    assert interval_calls[0] <= per_row * rows

    assert len(want) > 0
    assert sorted(first.tuple_ids()) == sorted(second.tuple_ids()) == sorted(want)


def test_a_self_join_builds_its_columns_once(interval_calls):
    """Aliases share the store: three names for one base relation read
    one set of endpoint columns, built from the stored columns, not the
    rows."""
    base = make_dataset(("R1",), 50, seed=4)["R1"]
    data = {"R1": base, "R2": base.alias("R2"), "R3": base.alias("R3")}
    interval_calls[0] = 0
    result = execute(COLOCATION, data, "all_replicate", num_partitions=4)
    assert interval_calls[0] == 0
    assert data["R2"].columns("I") is data["R3"].columns("I") is base.columns("I")
    assert len(result) > 0


@pytest.fixture
def rows_built(monkeypatch):
    """A counter of ``Row`` objects constructed in this process (the
    parent, which holds the relations on every executor)."""
    built = [0]
    init = Row.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Row, "__init__", counted)
    return built


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize(
    "algorithm, query", [case[:2] for case in CENSUS], ids=[case[0] for case in CENSUS]
)
def test_no_query_builds_a_row(algorithm, query, run, rows_built):
    """A relation is its columns: building the relations, two queries
    over them and validating the second, its tuples unforced, construct
    no ``Row`` — the flag and mark cycles included, which commit rids
    and route on their relations' rid columns."""
    rows_built[0] = 0
    data = make_dataset(query.relations, 60, seed=21)
    execute(query, data, algorithm, num_partitions=4, **RUNS[run])
    second = execute(query, data, algorithm, num_partitions=4, **RUNS[run])
    validate_result(second, data)
    ids = second.tuple_ids()
    assert rows_built[0] == 0
    want = reference_join(query, data).tuple_ids()
    assert len(want) > 0 and sorted(ids) == sorted(want)


def test_generate_save_load_and_run_to_a_file_build_no_row(tmp_path, rows_built, capsys):
    """``repro generate`` / ``save_relation`` / ``load_relation`` and
    ``repro run -o`` over two JSON-lines inputs: no ``Row`` anywhere."""
    rows_built[0] = 0
    paths = []
    for seed, name in enumerate(("R1", "R2")):
        config = SyntheticConfig(n=300, t_range=(0, 3000), length_range=(1, 150), seed=seed)
        paths.append(tmp_path / f"{name}.jsonl")
        save_relation(generate_relation(name, config), str(paths[-1]))
    out = tmp_path / "out.jsonl"
    assert main([
        "run", "--relation", f"R1={paths[0]}", "--relation", f"R2={paths[1]}",
        "--condition", "R1 overlaps R2", "--partitions", "8", "-o", str(out),
    ]) == 0
    assert rows_built[0] == 0
    data = {name: load_relation(str(path), name) for name, path in zip(("R1", "R2"), paths)}
    lines = out.read_text().splitlines()
    assert len(lines) == len(reference_join(TWO_WAY, data)) > 0


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
    """A fault plan deep-copies the mapper per in-process attempt; the
    relation rides on the input spec, which is never copied."""
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


def test_one_endpoint_past_float64_keeps_the_job_columnar():
    """The relation's memoised column is ``object`` as soon as one
    endpoint is not a float64, and the columnar job reads it as it is."""
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
        assert job.name == "two-way"
        assert sorted(result.tuple_ids()) == sorted(
            reference_join(TWO_WAY, data).tuple_ids()
        )
