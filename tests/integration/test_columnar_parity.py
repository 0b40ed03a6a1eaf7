"""Cross-plane parity: the columnar data plane must equal the records
plane bit-for-bit, and the job — not the user — picks between them.

The columnar plane swaps the intermediate pair stream from
tuple-at-a-time records to struct-of-arrays columns (argsort shuffle,
shared-memory reduce transport under ``processes``) — and nothing else.
A job runs there exactly when its code implements the protocol — its
data never decides — so the records arm of every comparison below is
obtained inside the test, by substituting a gate that refuses.
These tests pin the contract for every algorithm with a columnar job on
every executor:

* identical output tuples,
* identical per-job counters, reduce-task loads and part files,
* identical deterministic metrics fingerprint,
* identical trace span set,

plus the rule around it: which plane each job of each algorithm runs on
and why, that inexact endpoints, multi-attribute queries and residual
conditions stay columnar (and the answer right), that fault injection
does too (chaos runs stay on the columnar plane and stay bit-identical),
and that profiling the columnar plane is passive.
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

from repro import Interval, Relation, reference_join
from repro.core.algorithms.base import (
    build_partitioning,
    input_path,
    write_inputs,
)
from repro.core.algorithms.rccis import JoinReducer
from repro.core.algorithms.routing import OperatorRouter, RoutedMapper, RowView
from repro.core.algorithms.two_way import OperatorMapper
from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.mapreduce import InMemoryFileSystem, Reducer, run_job
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.obs import TraceRecorder

from tests.conftest import assert_matches_reference, make_dataset
from tests.integration.test_fault_parity import (
    _counters_sans_faults,
    _task_span_profile,
    pinned_plan,
)

EXECUTORS = ("serial", "threads", "processes")

COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)
TWO_WAY = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
#: A cyclic query: the cascade's ``cascade-R3`` step checks a residual
#: condition on the bound side's other member.
TRIANGLE = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3"), ("R1", "overlaps", "R3")]
)
#: Two attributes of R1 in two components: a 3-D Gen-Matrix grid.
MULTI_ATTRIBUTE = IntervalJoinQuery.parse(
    [("R1.I", "overlaps", "R2.I"), ("R1.J", "before", "R3.J")]
)

#: The algorithms whose joins run columnar: the two-way overlap join (int
#: partition keys), RCCIS (int keys, three relations), the cascade in
#: both its key families — colocation steps route on partition indices,
#: sequence steps on 2-D grid cells — and the grid algorithms, whose
#: cycles route on n-dimensional cells and ``(component, partition)``
#: pairs (FSTC through its All-Matrix sub-plan).
GRID_CASES = [
    ("all_matrix", SEQUENCE, ("R1", "R2", "R3")),
    ("all_seq_matrix", HYBRID, ("R1", "R2", "R3")),
    ("pasm", HYBRID, ("R1", "R2", "R3")),
    ("gen_matrix", HYBRID, ("R1", "R2", "R3")),
    ("fstc", HYBRID, ("R1", "R2", "R3")),
]
GRID_IDS = [case[0] for case in GRID_CASES]
CASES = [
    ("two_way", TWO_WAY, ("R1", "R2")),
    ("rccis", COLOCATION, ("R1", "R2", "R3")),
    ("two_way_cascade", COLOCATION, ("R1", "R2", "R3")),
    ("two_way_cascade", SEQUENCE, ("R1", "R2", "R3")),
    *GRID_CASES,
    ("fcts", HYBRID, ("R1", "R2", "R3")),
    ("gen_matrix", MULTI_ATTRIBUTE, ("R1", "R2", "R3")),
    ("two_way_cascade", TRIANGLE, ("R1", "R2", "R3")),
]

CASE_IDS = [
    "two_way", "rccis", "cascade_colocation", "cascade_sequence", *GRID_IDS,
    "fcts", "gen_matrix_multi_attribute", "cascade_triangle",
]


def _run(algorithm, query, data, executor, **kwargs):
    recorder = TraceRecorder(profile=kwargs.pop("profile", False))
    result = execute(
        query,
        data,
        algorithm=algorithm,
        num_partitions=kwargs.pop("num_partitions", 5),
        executor=executor,
        workers=2,
        observer=recorder,
        **kwargs,
    )
    recorder.close()
    return result, recorder


def _refusing_gate(conf):
    return None, "refused-by-the-parity-suite"


def _run_on_records(monkeypatch, *args, **kwargs):
    """``_run`` with every job kept on the records plane: the gate is the
    one place the plane is decided (in the parent, under every
    executor), so substituting it is the whole switch."""
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.mapreduce.runner.job_columnar_gate", _refusing_gate
        )
        return _run(*args, **kwargs)


def _span_profile(recorder):
    return sorted(
        (
            span.kind,
            span.name,
            span.attributes.get("job"),
            span.attributes.get("task_index"),
        )
        for span in recorder.spans
    )


def _metrics_facts(result):
    """Every deterministic ExecutionMetrics field."""
    facts = dataclasses.asdict(result.metrics)
    facts.pop("simulated_seconds")  # host wall clock
    return facts


def _assert_cross_plane_parity(records_pack, columnar_pack):
    records_result, records_rec = records_pack
    columnar_result, columnar_rec = columnar_pack

    assert {job.data_plane for job in records_rec.job_results} == {"records"}
    assert "columnar" in {job.data_plane for job in columnar_rec.job_results}

    assert columnar_result.tuple_ids() == records_result.tuple_ids()
    assert len(records_result) > 0

    assert _metrics_facts(columnar_result) == _metrics_facts(records_result)

    assert len(columnar_rec.job_results) == len(records_rec.job_results)
    for columnar_job, records_job in zip(
        columnar_rec.job_results, records_rec.job_results
    ):
        assert columnar_job.name == records_job.name
        assert (
            columnar_job.counters.as_dict() == records_job.counters.as_dict()
        )
        assert (
            columnar_job.reduce_task_loads == records_job.reduce_task_loads
        )
        assert (
            columnar_job.reduce_task_outputs
            == records_job.reduce_task_outputs
        )

    assert (
        columnar_rec.metrics.fingerprint() == records_rec.metrics.fingerprint()
    )
    assert _span_profile(columnar_rec) == _span_profile(records_rec)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm,query,names", CASES, ids=CASE_IDS)
def test_columnar_matches_records(
    algorithm, query, names, executor, monkeypatch
):
    data = (
        make_dataset(names, 60, seed=11)
        if query.is_single_attribute
        else _two_attribute_dataset(names, 60, seed=11)
    )
    records_pack = _run_on_records(
        monkeypatch, algorithm, query, data, executor
    )
    columnar_pack = _run(algorithm, query, data, executor)
    _assert_cross_plane_parity(records_pack, columnar_pack)


#: The flag cycles — RCCIS's own and the (component, partition)-keyed one
#: of the grid algorithms — with where each writes its flags.
FLAG_CASES = [
    ("rccis", COLOCATION, "rccis/flags"),
    ("pasm", HYBRID, "pasm/flags"),
    ("gen_matrix", HYBRID, "gen_matrix/flags"),
]


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "algorithm,query,flags_dir", FLAG_CASES, ids=[c[0] for c in FLAG_CASES]
)
def test_flag_cycle_matches_records(
    algorithm, query, flags_dir, executor, chaos, monkeypatch
):
    """A columnar flag cycle writes the records plane's flag files —
    part for part, record for record, in order — with the same
    replication count and the same loads, fault plan or not."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
    options = dict(faults=pinned_plan(), max_attempts=3) if chaos else {}
    records_fs, columnar_fs = InMemoryFileSystem(), InMemoryFileSystem()
    _, records_rec = _run_on_records(
        monkeypatch, algorithm, query, data, executor,
        fs=records_fs, **options,
    )
    _, columnar_rec = _run(
        algorithm, query, data, executor, fs=columnar_fs, **options
    )
    records_job, columnar_job = (
        recorder.job_results[0] for recorder in (records_rec, columnar_rec)
    )
    assert columnar_job.name == records_job.name == f"{algorithm}-flag"
    assert (records_job.data_plane, columnar_job.data_plane) == (
        "records", "columnar",
    )

    parts = columnar_fs.list_prefix(flags_dir)
    assert parts == records_fs.list_prefix(flags_dir)
    flags = [list(columnar_fs.read(part)) for part in parts]
    assert flags == [list(records_fs.read(part)) for part in parts]
    assert sum(map(len, flags)) > 0

    replicated = columnar_job.counters.value("join", "replicated_intervals")
    assert replicated > 0
    assert replicated == records_job.counters.value(
        "join", "replicated_intervals"
    )
    assert (
        columnar_job.logical_reducer_loads == records_job.logical_reducer_loads
    )
    assert columnar_job.reduce_task_loads == records_job.reduce_task_loads


def _files(fs):
    """Every file of a run, record for record."""
    return {path: list(fs.read(path)) for path in fs.list_prefix("")}


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm,query,names", GRID_CASES, ids=GRID_IDS)
def test_grid_cycles_write_the_records_planes_files(
    algorithm, query, names, executor, chaos, monkeypatch
):
    """Every cycle of a grid algorithm — flag, mark, join — runs columnar
    and writes the records plane's files, part for part and record for
    record, with the same counters, loads and committed task spans,
    fault plan or not."""
    data = make_dataset(names, 60, seed=11)
    options = dict(faults=pinned_plan(), max_attempts=3) if chaos else {}
    records_fs, columnar_fs = InMemoryFileSystem(), InMemoryFileSystem()
    _, records_rec = _run_on_records(
        monkeypatch, algorithm, query, data, executor,
        fs=records_fs, **options,
    )
    _, columnar_rec = _run(
        algorithm, query, data, executor, fs=columnar_fs, **options
    )
    assert {job.data_plane for job in columnar_rec.job_results} == {"columnar"}
    assert _files(columnar_fs) == _files(records_fs)
    assert _counters_sans_faults(columnar_rec) == _counters_sans_faults(
        records_rec
    )
    for columnar_job, records_job in zip(
        columnar_rec.job_results, records_rec.job_results
    ):
        assert (
            columnar_job.logical_reducer_loads
            == records_job.logical_reducer_loads
        )
        assert columnar_job.reduce_task_loads == records_job.reduce_task_loads
    assert _task_span_profile(columnar_rec) == _task_span_profile(records_rec)


def _shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_chaos_equals_clean_on_columnar(executor):
    """Fault tolerance and the columnar plane compose: a chaos run stays
    *on the columnar plane* — retried attempts included, which under
    ``processes`` re-attach the task's shared-memory block —
    and still equals the clean columnar run bit for bit."""
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
    data = make_dataset(("R1", "R2"), 60, seed=11)
    segments_before = _shm_segments()
    clean, clean_rec = _run("two_way", query, data, executor)
    chaos, chaos_rec = _run(
        "two_way", query, data, executor,
        faults=pinned_plan(), max_attempts=3,
    )

    assert chaos.tuple_ids() == clean.tuple_ids()
    assert len(clean) > 0
    assert _counters_sans_faults(chaos_rec) == _counters_sans_faults(
        clean_rec
    )
    assert _task_span_profile(chaos_rec) == _task_span_profile(clean_rec)

    # Faults change nothing about the plane: every job ran columnar.
    assert all(job.data_plane == "columnar" for job in chaos_rec.job_results)

    # The plan really exercised the reduce side: at least one reduce
    # attempt failed and was retried ...
    reduce_attempts = [
        span
        for span in chaos_rec.spans
        if span.kind == "attempt" and span.attributes["phase"] == "reduce"
    ]
    assert any("error" in span.attributes for span in reduce_attempts)
    # ... and the parent unlinked every shared-memory block regardless.
    assert _shm_segments() <= segments_before


@pytest.mark.parametrize("executor", EXECUTORS)
def test_profiler_is_passive_on_columnar(executor):
    """Profiling a columnar run changes nothing outside the allowlisted
    profile/wall metric groups."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=5)
    plain, plain_rec = _run("rccis", COLOCATION, data, executor)
    profiled, prof_rec = _run(
        "rccis", COLOCATION, data, executor, profile=True
    )
    assert profiled.tuple_ids() == plain.tuple_ids()
    assert _metrics_facts(profiled) == _metrics_facts(plain)
    assert prof_rec.metrics.fingerprint() == plain_rec.metrics.fingerprint()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_shm_transport_accounted_only_under_processes(executor):
    """The profiler's shared-memory accounting fires exactly when the
    zero-copy transport is in use: the columnar plane under the
    processes executor."""
    data = make_dataset(("R1", "R2"), 60, seed=7)
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
    _, recorder = _run(
        "two_way", query, data, executor, profile=True
    )
    snapshot = recorder.metrics.as_dict()
    family = snapshot.get("repro_profile_shm_bytes_total")
    samples = family["samples"] if family else []
    if executor == "processes":
        assert sum(sample["value"] for sample in samples) > 0
    else:
        assert not samples




# ----------------------------------------------------------------------
# The rule: which plane each job runs on, and why.
# ----------------------------------------------------------------------

#: The map side is columnar-capable; the reducer is not.
NO_REDUCER = "reducer-no-columnar-protocol"

#: algorithm, query, and per job in execution order ``(name, plane,
#: reason)`` with default options: every job of every algorithm runs
#: columnar.
RULE = [
    ("two_way", TWO_WAY, [("two-way", "columnar", None)]),
    ("rccis", COLOCATION, [
        ("rccis-flag", "columnar", None),
        ("rccis-join", "columnar", None),
    ]),
    ("two_way_cascade", SEQUENCE, [
        ("cascade-R2", "columnar", None),
        ("cascade-R3", "columnar", None),
    ]),
    ("all_replicate", SEQUENCE, [("all-replicate", "columnar", None)]),
    ("all_matrix", SEQUENCE, [("all_matrix-join", "columnar", None)]),
    ("all_seq_matrix", HYBRID, [
        ("all_seq_matrix-flag", "columnar", None),
        ("all_seq_matrix-join", "columnar", None),
    ]),
    ("pasm", HYBRID, [
        ("pasm-flag", "columnar", None),
        ("pasm-mark", "columnar", None),
        ("pasm-join", "columnar", None),
    ]),
    ("gen_matrix", HYBRID, [
        ("gen_matrix-flag", "columnar", None),
        ("gen_matrix-join", "columnar", None),
    ]),
    ("gen_matrix", MULTI_ATTRIBUTE, [
        ("gen_matrix-flag", "columnar", None),
        ("gen_matrix-join", "columnar", None),
    ]),
    ("fcts", HYBRID, [
        ("rccis-flag", "columnar", None),
        ("rccis-join", "columnar", None),
        ("fcts-matrix", "columnar", None),
    ]),
    ("fstc", HYBRID, [
        ("all_matrix-join", "columnar", None),
        ("fstc-R1", "columnar", None),
    ]),
]
RULE_IDS = [
    algorithm if query.is_single_attribute else f"{algorithm}_multi_attribute"
    for algorithm, query, _ in RULE
]


def _two_attribute_dataset(names, n, seed):
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


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm,query,expected", RULE, ids=RULE_IDS)
def test_each_job_picks_its_plane(algorithm, query, expected, executor):
    names = ("R1", "R2", "R3")
    data = (
        make_dataset(names, 40, seed=11)
        if query.is_single_attribute
        else _two_attribute_dataset(names, 40, seed=11)
    )
    result, recorder = _run(algorithm, query, data, executor)
    assert_matches_reference(query, data, result)
    assert [
        (job.name, job.data_plane, job.data_plane_reason)
        for job in recorder.job_results
    ] == expected


class _RecordsOnly(Reducer):
    """A user reducer without the kernel protocol."""

    def reduce(self, key, values, context):
        context.emit_many(values)


def _two_way_job(query, data):
    """The two-way join of ``query``'s first condition as a bare job,
    with its inputs staged on a fresh file system: each relation routed
    on its first condition's attribute, its values carrying the other
    attributes the query names."""
    fs = InMemoryFileSystem()
    write_inputs(fs, query, data)
    parts = build_partitioning(query, data, 4)
    condition = query.conditions[0]
    terms = (
        (condition.left, condition.predicate.left_operator),
        (condition.right, condition.predicate.right_operator),
    )

    def mapper(term, operator):
        also = [a for a in query.attributes_of(term.relation) if a != term.attribute]
        if not also:
            return OperatorMapper(term.relation, term.attribute, parts, operator)
        return RoutedMapper(
            RowView(term.relation, term.attribute, also=also),
            OperatorRouter(parts, operator),
        )

    conf = JobConf(
        name="two-way",
        inputs=[
            InputSpec(input_path(term.relation), mapper(term, operator))
            for term, operator in terms
        ],
        reducer=JoinReducer(
            query, {term.relation: term.attribute for term, _ in terms}, parts
        ),
        output="twoway/output",
        num_reduce_tasks=4,
        partitioner=RoundRobinKeyPartitioner(),
    )
    return fs, conf


def test_a_multi_attribute_reducer_runs_columnar():
    """A ``JoinReducer`` whose query reads two attributes of a relation
    runs columnar: each value carries the attribute it is not routed on
    as a further term, which the join reads as its column."""
    rng = random.Random(5)

    def relation(name):
        records = []
        for _ in range(30):
            a, b = rng.uniform(0, 100), rng.uniform(0, 100)
            records.append({
                "I": Interval(a, a + rng.uniform(0, 20)),
                "J": Interval(b, b + rng.uniform(0, 60)),
            })
        return Relation.of_records(name, records)

    data = {name: relation(name) for name in ("R1", "R2")}
    query = IntervalJoinQuery.parse(
        [("R1.I", "overlaps", "R2.I"), ("R1.J", "overlaps", "R2.J")]
    )
    fs, conf = _two_way_job(query, data)
    result = run_job(fs, conf)
    assert (result.data_plane, result.data_plane_reason) == ("columnar", None)
    tuples = list(fs.read_dir(conf.output))
    assert sorted(
        tuple(row.rid for row in rows) for rows in tuples
    ) == reference_join(query, data).tuple_ids()
    assert tuples


class TestFallbackObservability:
    """Why a job ran on the records plane is a fact of the job: the same
    reason string on its span and on its result."""

    def test_protocol_gap_reason_recorded(self):
        """A user reducer that implements no kernel: its job runs on
        records with the gate's reason, on the span and the job result
        alike."""
        data = make_dataset(("R1", "R2"), 60, seed=11)
        fs, conf = _two_way_job(TWO_WAY, data)
        conf.reducer = _RecordsOnly()
        recorder = TraceRecorder()
        job_result = run_job(fs, conf, observer=recorder)
        recorder.close()
        assert (job_result.data_plane, job_result.data_plane_reason) == (
            "records", NO_REDUCER,
        )
        (span,) = [span for span in recorder.spans if span.kind == "job"]
        assert span.attributes["data_plane"] == "records"
        assert span.attributes["data_plane_reason"] == NO_REDUCER

    def test_columnar_job_span_carries_no_reason(self):
        data = make_dataset(("R1", "R2"), 60, seed=11)
        _, recorder = _run("two_way", TWO_WAY, data, "serial")
        (span,) = [s for s in recorder.spans if s.kind == "job"]
        assert span.attributes["data_plane"] == "columnar"
        assert "data_plane_reason" not in span.attributes


# ----------------------------------------------------------------------
# Exactness: float64 columns stand in for the intervals only when every
# endpoint survives the conversion; otherwise the columns are ``object``.
# ----------------------------------------------------------------------

BIG = 2**53

#: Shrunk from a wrong join: float64 rounds BIG + 1 to BIG and BIG + 3
#: to BIG + 4, which turns "overlaps" pairs into "meets" pairs and back.
BEYOND_FLOAT64 = {
    "R1": [
        Interval(BIG + 1, BIG + 3),
        Interval(BIG + 10, BIG + 11),
        Interval(5, 9),
    ],
    "R2": [
        Interval(BIG + 3, BIG + 5),
        Interval(BIG + 2, BIG + 4),
        Interval(BIG + 11, BIG + 13),
        Interval(7, 12),
    ],
}

#: Integers and floats mixed, every one of them a float64 value.
WITHIN_FLOAT64 = {
    "R1": [Interval(BIG - 4, BIG), Interval(5, 9.5), Interval(0.25, 7)],
    "R2": [Interval(BIG - 2, BIG + 2), Interval(7, 12.5), Interval(6, 8.75)],
}


def _relations(intervals):
    return {
        name: Relation.of_intervals(name, rows)
        for name, rows in intervals.items()
    }


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("predicate", ["overlaps", "meets"])
@pytest.mark.parametrize("algorithm", ["two_way", "rccis", "two_way_cascade"])
def test_endpoints_beyond_float64_join_on_records(
    algorithm, predicate, executor, monkeypatch
):
    """Both arms join the exact values: the records arm off the rows,
    the columnar plane — which the job picks whatever its data — off
    ``object`` columns."""
    data = _relations(BEYOND_FLOAT64)
    query = IntervalJoinQuery.parse([("R1", predicate, "R2")])
    records, _ = _run_on_records(
        monkeypatch, algorithm, query, data, executor, num_partitions=2
    )
    assert_matches_reference(query, data, records)
    assert len(records) == 2
    recorder = TraceRecorder()
    result = execute(
        query, data, algorithm=algorithm, num_partitions=2,
        executor=executor, workers=2, observer=recorder,
    )
    assert result.tuple_ids() == records.tuple_ids()
    assert {job.data_plane for job in recorder.job_results} == {"columnar"}


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", ["two_way", "rccis", "two_way_cascade"])
def test_mixed_int_and_float_endpoints_stay_columnar(algorithm, executor):
    data = _relations(WITHIN_FLOAT64)
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
    recorder = TraceRecorder()
    result = execute(
        query, data, algorithm=algorithm, num_partitions=2,
        executor=executor, workers=2, observer=recorder,
    )
    assert_matches_reference(query, data, result)
    assert len(result) == 3
    assert recorder.job_results[-1].data_plane == "columnar"


def _beyond_float64_dataset(names, seed):
    """Integer endpoints ``BIG + k``: every odd one is not a float64, so
    float64 columns would merge neighbouring endpoints."""
    rng = random.Random(seed)
    data = {}
    for name in names:
        starts = [BIG + rng.randint(0, 40) for _ in range(25)]
        data[name] = Relation.of_intervals(
            name, [Interval(s, s + rng.randint(0, 6)) for s in starts]
        )
    return data


#: The first job of each algorithm below, on endpoints beyond float64:
#: columnar, over the relation's own ``object`` columns.
FIRST_JOB_BEYOND_FLOAT64 = {
    "two_way": ("two-way", "columnar", None),
    "all_replicate": ("all-replicate", "columnar", None),
    "rccis": ("rccis-flag", "columnar", None),
    "pasm": ("pasm-flag", "columnar", None),
    "all_matrix": ("all_matrix-join", "columnar", None),
    "gen_matrix": ("gen_matrix-flag", "columnar", None),
    "two_way_cascade": ("cascade-R2", "columnar", None),
}


@pytest.mark.parametrize(
    "algorithm, conditions",
    [
        ("rccis", [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]),
        ("pasm", [("R1", "overlaps", "R2"), ("R2", "before", "R3")]),
        ("all_matrix", [("R1", "before", "R2"), ("R2", "before", "R3")]),
        ("two_way", [("R1", "overlaps", "R2")]),
        ("all_replicate", [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]),
        # A multi-term colocation component: the component flag cycle.
        ("gen_matrix", [("R1", "overlaps", "R2"), ("R2", "before", "R3")]),
        # Every step of a 3-relation cascade.
        ("two_way_cascade", [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]),
    ],
)
def test_whole_queries_are_exact_beyond_float64(algorithm, conditions):
    """The flagging decision and the reducer-local join run over
    ``object`` columns when an endpoint is not a float64, on the
    columnar plane — on a first query, which builds the relations'
    columns, and on a second, which finds them."""
    query = IntervalJoinQuery.parse(conditions)
    data = _beyond_float64_dataset(query.relations, seed=53)
    for _ in range(2):
        recorder = TraceRecorder()
        result = execute(
            query, data, algorithm=algorithm, num_partitions=3, observer=recorder
        )
        assert_matches_reference(query, data, result)
        assert len(result) > 0
        first = recorder.job_results[0]
        assert (
            first.name, first.data_plane, first.data_plane_reason
        ) == FIRST_JOB_BEYOND_FLOAT64[algorithm]
    rounded = {
        name: Relation.of_intervals(
            name,
            [Interval(float(iv.start), float(iv.end))
             for iv in relation.intervals()],
        )
        for name, relation in data.items()
    }
    assert (
        reference_join(query, rounded).tuple_ids() != result.tuple_ids()
    ), "the data does not tell exact endpoints from float64 ones"


def test_past_2_53_rccis_under_processes_leaves_no_segment():
    """``object`` endpoint columns cannot live in shared memory: they
    travel pickled in the task's descriptor, beside a block of gids and
    tag codes that the parent still unlinks."""
    data = _beyond_float64_dataset(COLOCATION.relations, seed=53)
    segments_before = _shm_segments()
    recorder = TraceRecorder()
    result = execute(
        COLOCATION, data, algorithm="rccis", num_partitions=3,
        executor="processes", workers=2, observer=recorder,
    )
    assert sorted(result.tuple_ids()) == sorted(
        reference_join(COLOCATION, data).tuple_ids()
    )
    assert len(result) > 0
    assert {job.data_plane for job in recorder.job_results} == {"columnar"}
    (shm_bytes,) = {
        span.attributes["shm_bytes"] for span in recorder.spans
        if span.name == "reduce" and span.attributes["job"] == "rccis-join"
    }
    (join,) = [job for job in recorder.job_results if job.name == "rccis-join"]
    assert shm_bytes == 10 * join.shuffled_records  # gids and tag codes
    assert _shm_segments() <= segments_before


@pytest.mark.parametrize("strategy", ["uniform", "equi_depth"])
@pytest.mark.parametrize("parts", [1, 8])
@pytest.mark.parametrize("gap, length", [(30, 45), (1, 3)], ids=["gap30", "gap1"])
def test_a_range_past_2_60_partitions(gap, length, parts, strategy):
    """Starts ``gap`` apart from 2**60, where float64's spacing is 256:
    the uniform partitioning's boundaries — and, for the narrower range,
    its padded right edge — coincide in float64, so they merge into
    fewer partitions instead of failing, as equi_depth's tied quantiles
    do."""
    rows = [Interval(2**60 + gap * i, 2**60 + gap * i + length) for i in range(20)]
    data = _relations({"R1": rows, "R2": rows})
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
    result = execute(
        query, data, algorithm="two_way", num_partitions=parts,
        partition_strategy=strategy,
    )
    assert_matches_reference(query, data, result)
    assert len(result) > 0
