"""Cross-plane parity: the columnar data plane must equal the records
plane bit-for-bit, and the job — not the user — picks between them.

The columnar plane swaps the intermediate pair stream from
tuple-at-a-time records to struct-of-arrays columns (argsort shuffle,
shared-memory reduce transport under ``processes``) — and nothing else.
A job runs there exactly when its own gate passes and its routing
endpoints are exact in float64, so the records arm of every comparison
below is obtained inside the test, by substituting a gate that refuses.
These tests pin the contract for every algorithm with a columnar job on
every executor:

* identical output tuples,
* identical per-job counters, reduce-task loads and part files,
* identical deterministic metrics fingerprint,
* identical trace span set,

plus the rule around it: which plane each job of each algorithm runs on
and why, that inexact endpoints keep a job on the records plane (and the
answer right), that fault injection does not (chaos runs stay on the
columnar plane and stay bit-identical), and that profiling the columnar
plane is passive.
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

#: The algorithms whose joins run columnar: the two-way overlap join (int
#: partition keys), RCCIS (int keys, three relations) and the cascade in
#: both its key families — colocation steps route on partition indices,
#: sequence steps on 2-D grid cells.
CASES = [
    ("two_way", TWO_WAY, ("R1", "R2")),
    ("rccis", COLOCATION, ("R1", "R2", "R3")),
    ("two_way_cascade", COLOCATION, ("R1", "R2", "R3")),
    ("two_way_cascade", SEQUENCE, ("R1", "R2", "R3")),
]

CASE_IDS = ["two_way", "rccis", "cascade_colocation", "cascade_sequence"]


def _run(algorithm, query, data, executor, **kwargs):
    recorder = TraceRecorder(profile=kwargs.pop("profile", False))
    result = execute(
        query,
        data,
        algorithm=algorithm,
        num_partitions=5,
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
    data = make_dataset(names, 60, seed=11)
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


def _shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_chaos_equals_clean_on_columnar(executor):
    """Fault tolerance and the columnar plane compose: a chaos run stays
    *on the columnar plane* — retried and speculative attempts included,
    which under ``processes`` re-attach the task's shared-memory block —
    and still equals the clean columnar run bit for bit."""
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
    data = make_dataset(("R1", "R2"), 60, seed=11)
    segments_before = _shm_segments()
    clean, clean_rec = _run("two_way", query, data, executor)
    chaos, chaos_rec = _run(
        "two_way", query, data, executor,
        faults=pinned_plan(), max_attempts=3, speculative=True,
    )

    assert chaos.tuple_ids() == clean.tuple_ids()
    assert len(clean) > 0
    assert _counters_sans_faults(chaos_rec) == _counters_sans_faults(
        clean_rec
    )
    assert _task_span_profile(chaos_rec) == _task_span_profile(clean_rec)

    # Faults change nothing about the plane: every job ran columnar.
    assert all(job.data_plane == "columnar" for job in chaos_rec.job_results)

    # The plan really exercised the reduce side both ways: at least one
    # reduce attempt failed and was retried, and at least one delayed
    # winner got a speculative backup ...
    reduce_attempts = [
        span
        for span in chaos_rec.spans
        if span.kind == "attempt" and span.attributes["phase"] == "reduce"
    ]
    assert any("error" in span.attributes for span in reduce_attempts)
    assert any(span.attributes.get("speculative") for span in reduce_attempts)
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

#: The multi-attribute grid routing is a mapper of its own.
NO_PROTOCOL = "mapper-no-columnar-protocol"
#: The map side is the one columnar-capable mapper; the reducer is not.
NO_REDUCER = "reducer-no-columnar-protocol"

#: algorithm, query, and per job in execution order ``(name, plane,
#: reason)`` with default options.  Records-only: the grid join cycles,
#: PASM's marking cycle and FCTS's matrix; every flag cycle runs
#: columnar, and the hybrids mix through their component plans.
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
    ("all_matrix", SEQUENCE, [("all_matrix-join", "records", NO_PROTOCOL)]),
    ("all_seq_matrix", HYBRID, [
        ("all_seq_matrix-flag", "columnar", None),
        ("all_seq_matrix-join", "records", NO_PROTOCOL),
    ]),
    ("pasm", HYBRID, [
        ("pasm-flag", "columnar", None),
        ("pasm-mark", "records", NO_REDUCER),
        ("pasm-join", "records", NO_PROTOCOL),
    ]),
    ("gen_matrix", HYBRID, [
        ("gen_matrix-flag", "columnar", None),
        ("gen_matrix-join", "records", NO_PROTOCOL),
    ]),
    ("fcts", HYBRID, [
        ("rccis-flag", "columnar", None),
        ("rccis-join", "columnar", None),
        ("fcts-matrix", "records", NO_REDUCER),
    ]),
    ("fstc", HYBRID, [
        ("all_matrix-join", "records", NO_PROTOCOL),
        ("fstc-R1", "columnar", None),
    ]),
]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "algorithm,query,expected", RULE, ids=[case[0] for case in RULE]
)
def test_each_job_picks_its_plane(algorithm, query, expected, executor):
    data = make_dataset(("R1", "R2", "R3"), 40, seed=11)
    result, recorder = _run(algorithm, query, data, executor)
    assert_matches_reference(query, data, result)
    assert [
        (job.name, job.data_plane, job.data_plane_reason)
        for job in recorder.job_results
    ] == expected


class _Resend(Reducer):
    """A combiner that re-emits what it was given."""

    def reduce(self, key, values, context):
        for value in values:
            context.emit(value)


def _two_way_job(query, data, combiner=None):
    """The two-way join of ``query``'s first condition as a bare job,
    with its inputs staged on a fresh file system."""
    fs = InMemoryFileSystem()
    write_inputs(fs, query, data)
    parts = build_partitioning(query, data, 4)
    condition = query.conditions[0]
    terms = (
        (condition.left, condition.predicate.left_operator),
        (condition.right, condition.predicate.right_operator),
    )
    conf = JobConf(
        name="two-way",
        inputs=[
            InputSpec(
                input_path(term.relation),
                OperatorMapper(term.relation, term.attribute, parts, operator),
            )
            for term, operator in terms
        ],
        reducer=JoinReducer(
            query, {term.relation: term.attribute for term, _ in terms}, parts
        ),
        output="twoway/output",
        num_reduce_tasks=4,
        partitioner=RoundRobinKeyPartitioner(),
        combiner=combiner,
    )
    return fs, conf


def test_a_combiner_job_runs_on_records():
    data = make_dataset(("R1", "R2"), 40, seed=11)
    fs, conf = _two_way_job(TWO_WAY, data)
    assert run_job(fs, conf).data_plane == "columnar"
    fs, conf = _two_way_job(TWO_WAY, data, combiner=_Resend())
    result = run_job(fs, conf)
    assert (result.data_plane, result.data_plane_reason) == (
        "records", "combiner-configured",
    )


def test_a_multi_attribute_reducer_runs_on_records():
    """A columnar group carries one routing interval per value, so a
    ``JoinReducer`` whose query reads two attributes of a relation
    reports itself not ready."""
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
    assert (result.data_plane, result.data_plane_reason) == (
        "records", "reducer-not-columnar-ready",
    )
    tuples = list(fs.read_dir(conf.output))
    assert sorted(
        tuple(row.rid for row in rows) for rows in tuples
    ) == reference_join(query, data).tuple_ids()
    assert tuples


class TestFallbackObservability:
    """Why a job ran on the records plane is a fact of the job: the same
    reason string on its span and on its result."""

    def test_protocol_gap_reason_recorded(self):
        """all_matrix implements no columnar protocol: every job runs on
        records with the gate's reason, on the span and the job result
        alike."""
        data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
        _, recorder = _run("all_matrix", SEQUENCE, data, "serial")
        for job_result in recorder.job_results:
            assert job_result.data_plane == "records"
            assert job_result.data_plane_reason == NO_PROTOCOL
        job_spans = [s for s in recorder.spans if s.kind == "job"]
        assert job_spans
        for span in job_spans:
            assert span.attributes["data_plane"] == "records"
            assert span.attributes["data_plane_reason"] == NO_PROTOCOL

    def test_columnar_job_span_carries_no_reason(self):
        data = make_dataset(("R1", "R2"), 60, seed=11)
        _, recorder = _run("two_way", TWO_WAY, data, "serial")
        (span,) = [s for s in recorder.spans if s.kind == "job"]
        assert span.attributes["data_plane"] == "columnar"
        assert "data_plane_reason" not in span.attributes


# ----------------------------------------------------------------------
# Exactness: float64 columns stand in for the intervals only when every
# endpoint survives the conversion.
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
    algorithm, predicate, executor
):
    data = _relations(BEYOND_FLOAT64)
    query = IntervalJoinQuery.parse([("R1", predicate, "R2")])
    recorder = TraceRecorder()
    result = execute(
        query, data, algorithm=algorithm, num_partitions=2,
        executor=executor, workers=2, observer=recorder,
    )
    assert_matches_reference(query, data, result)
    assert len(result) == 2
    last = recorder.job_results[-1]
    assert (last.data_plane, last.data_plane_reason) == (
        "records", "endpoints-not-float64-exact",
    )


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


#: The first job of each algorithm below, on endpoints beyond float64: a
#: job over base relations takes the records escape (the relation's own
#: columns are ``object`` there), a grid join has none to take.
FIRST_JOB_BEYOND_FLOAT64 = {
    "two_way": ("two-way", "records", "endpoints-not-float64-exact"),
    "all_replicate": ("all-replicate", "records", "endpoints-not-float64-exact"),
    "rccis": ("rccis-flag", "records", "endpoints-not-float64-exact"),
    "pasm": ("pasm-flag", "records", "endpoints-not-float64-exact"),
    "all_matrix": ("all_matrix-join", "records", NO_PROTOCOL),
}


@pytest.mark.parametrize(
    "algorithm, conditions",
    [
        ("rccis", [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]),
        ("pasm", [("R1", "overlaps", "R2"), ("R2", "before", "R3")]),
        ("all_matrix", [("R1", "before", "R2"), ("R2", "before", "R3")]),
        ("two_way", [("R1", "overlaps", "R2")]),
        ("all_replicate", [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]),
    ],
)
def test_whole_queries_are_exact_beyond_float64(algorithm, conditions):
    """The flagging decision and the reducer-local join run over
    ``object`` columns when an endpoint is not a float64: a job over
    base relations takes the records escape, the grid join reducers have
    no columnar plane and so none to take — on a first query, which
    builds the relations' columns, and on a second, which finds them."""
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
