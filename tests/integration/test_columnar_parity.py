"""The columnar data plane, the one every job runs on.

A job is a ``KernelReducer`` fed by ``Mapper`` inputs of one key kind
(``docs/data_plane.md``): its pairs travel as struct-of-arrays columns
(argsort shuffle, shared-memory reduce transport under ``processes``).
The oracles here are ``reference_join`` and the clean serial run.  These
tests pin, for every algorithm on every executor:

* the reference's tuples, and the clean serial run's deterministic
  metrics and fingerprint;
* the clean serial run's flag and grid part files, file for file and
  record for record, fault plan or not;

plus the rule: which jobs each algorithm runs, that a job the plane
cannot run is refused before it maps, that inexact
endpoints, multi-attribute queries and residual conditions stay
columnar (and the answer right), that fault injection does too, and
that profiling the columnar plane is passive.
"""

from __future__ import annotations

import dataclasses
import os
import random
from types import SimpleNamespace

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
from repro.errors import MapReduceError
from repro.intervals.allen import MapOperator
from repro.mapreduce import InMemoryFileSystem, run_job
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.obs import TraceRecorder

from tests.conftest import (
    assert_matches_reference,
    dataset_for,
    make_dataset,
    make_two_attribute_dataset,
)
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


def _metrics_facts(result):
    """Every deterministic ExecutionMetrics field."""
    facts = dataclasses.asdict(result.metrics)
    facts.pop("simulated_seconds")  # host wall clock
    return facts


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm,query,names", CASES, ids=CASE_IDS)
def test_columnar_matches_records(algorithm, query, names, executor):
    """Every job runs columnar, the tuples are the reference's records,
    and the run's deterministic metrics and fingerprint are the clean
    serial run's."""
    data = dataset_for(query, 60, seed=11)
    baseline, baseline_rec = _run(algorithm, query, data, "serial")
    result, recorder = _run(algorithm, query, data, executor)
    assert_matches_reference(query, data, result)
    assert len(result) > 0
    assert result.tuple_ids() == baseline.tuple_ids()
    assert _metrics_facts(result) == _metrics_facts(baseline)
    assert recorder.metrics.fingerprint() == baseline_rec.metrics.fingerprint()


#: The flag cycles — RCCIS's own and the (component, partition)-keyed one
#: of the grid algorithms — with where each writes its flags.
FLAG_CASES = [
    ("rccis", COLOCATION, "rccis/flags"),
    ("pasm", HYBRID, "pasm/flags"),
    ("gen_matrix", HYBRID, "gen_matrix/flags"),
]


def _files(fs):
    """Every file of a run, record for record."""
    return {path: list(fs.read(path)) for path in fs.list_prefix("")}


def _against_clean_serial(algorithm, query, executor, chaos):
    """``(clean serial run, run)``, each as ``(file system, recorder)``:
    the run on ``executor``, under the pinned fault plan if ``chaos``."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
    options = dict(faults=pinned_plan(), max_attempts=3) if chaos else {}
    runs = []
    for where, extra in (("serial", {}), (executor, options)):
        fs = InMemoryFileSystem()
        result, recorder = _run(algorithm, query, data, where, fs=fs, **extra)
        assert_matches_reference(query, data, result)
        runs.append((fs, recorder))
    return runs


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "algorithm,query,flags_dir", FLAG_CASES, ids=[c[0] for c in FLAG_CASES]
)
def test_flag_cycle_matches_records(algorithm, query, flags_dir, executor, chaos):
    """A flag cycle writes the clean serial run's flag records — part
    for part, record for record, in order — with the same replication
    count and the same loads, on every executor, fault plan or not."""
    (baseline_fs, baseline_rec), (fs, recorder) = _against_clean_serial(
        algorithm, query, executor, chaos
    )
    baseline_job, job = (rec.job_results[0] for rec in (baseline_rec, recorder))
    assert job.name == f"{algorithm}-flag"

    parts = fs.list_prefix(flags_dir)
    assert parts == baseline_fs.list_prefix(flags_dir)
    flags = [list(fs.read(part)) for part in parts]
    assert flags == [list(baseline_fs.read(part)) for part in parts]
    assert sum(map(len, flags)) > 0

    replicated = job.counters.value("join", "replicated_intervals")
    assert replicated > 0
    assert replicated == baseline_job.counters.value("join", "replicated_intervals")
    assert job.logical_reducer_loads == baseline_job.logical_reducer_loads
    assert job.reduce_task_loads == baseline_job.reduce_task_loads


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm,query,names", GRID_CASES, ids=GRID_IDS)
def test_grid_cycles_write_the_records_planes_files(
    algorithm, query, names, executor, chaos
):
    """Every cycle of a grid algorithm — flag, mark, join — runs columnar
    and writes the clean serial run's files, part for part and record
    for record, with the same counters, loads and committed task spans,
    on every executor, fault plan or not."""
    (baseline_fs, baseline_rec), (fs, recorder) = _against_clean_serial(
        algorithm, query, executor, chaos
    )
    assert _files(fs) == _files(baseline_fs)
    assert _counters_sans_faults(recorder) == _counters_sans_faults(baseline_rec)
    for job, baseline_job in zip(recorder.job_results, baseline_rec.job_results):
        assert job.logical_reducer_loads == baseline_job.logical_reducer_loads
        assert job.reduce_task_loads == baseline_job.reduce_task_loads
    assert _task_span_profile(recorder) == _task_span_profile(baseline_rec)


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
# The rule: one plane, and a job it cannot run is refused.
# ----------------------------------------------------------------------

#: algorithm, query, and its jobs in execution order with default
#: options.
RULE = [
    ("two_way", TWO_WAY, ["two-way"]),
    ("rccis", COLOCATION, ["rccis-flag", "rccis-join"]),
    ("two_way_cascade", SEQUENCE, ["cascade-R2", "cascade-R3"]),
    ("all_replicate", SEQUENCE, ["all-replicate"]),
    ("all_matrix", SEQUENCE, ["all_matrix-join"]),
    ("all_seq_matrix", HYBRID, ["all_seq_matrix-flag", "all_seq_matrix-join"]),
    ("pasm", HYBRID, ["pasm-flag", "pasm-mark", "pasm-join"]),
    ("gen_matrix", HYBRID, ["gen_matrix-flag", "gen_matrix-join"]),
    ("gen_matrix", MULTI_ATTRIBUTE, ["gen_matrix-flag", "gen_matrix-join"]),
    ("fcts", HYBRID, ["rccis-flag", "rccis-join", "fcts-matrix"]),
    ("fstc", HYBRID, ["all_matrix-join", "fstc-R1"]),
]
RULE_IDS = [
    algorithm if query.is_single_attribute else f"{algorithm}_multi_attribute"
    for algorithm, query, _ in RULE
]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm,query,expected", RULE, ids=RULE_IDS)
def test_each_job_picks_its_plane(algorithm, query, expected, executor):
    """Every job runs on the one plane; each algorithm runs the jobs it
    plans, in order, on every executor."""
    data = dataset_for(query, 40, seed=11)
    result, recorder = _run(algorithm, query, data, executor)
    assert_matches_reference(query, data, result)
    assert [job.name for job in recorder.job_results] == expected


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
            InputSpec(input_path(term.relation), mapper(term, operator), data[term.relation])
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
    run_job(fs, conf)
    tuples = list(fs.read_dir(conf.output))
    assert sorted(
        tuple(row.rid for row in rows) for rows in tuples
    ) == reference_join(query, data).tuple_ids()
    assert tuples


def test_a_term_the_values_do_not_carry_is_refused():
    """A reducer reads a term off a value only where the value carries
    it: ``R1.J`` off values routed on ``R1.I`` is refused, naming the
    term and the tag, instead of joining the routing interval."""
    query = IntervalJoinQuery.parse([("R1.J", "overlaps", "R2.I")])
    data = make_two_attribute_dataset(("R1", "R2"), 30, seed=3)
    fs, conf = _two_way_job(query, data)
    conf.inputs[0].mapper = OperatorMapper(
        "R1", "I", conf.reducer.partitioning, query.conditions[0].predicate.left_operator
    )
    with pytest.raises(MapReduceError, match=r"R1\.J .*'R1'"):
        run_job(fs, conf)
    assert fs.list_prefix(conf.output) == []


def _refused(conf, fs):
    """Run a job that must be refused; returns the error message after
    checking that no task ran and nothing was written."""
    recorder = TraceRecorder()
    with pytest.raises(MapReduceError) as refused:
        run_job(fs, conf, observer=recorder)
    assert recorder.spans == []
    assert fs.list_prefix(conf.output) == []
    return str(refused.value)


def test_a_kernel_job_with_a_plain_mapper_is_refused():
    """An input whose mapper is not a ``Mapper`` — here one with only
    the per-record ``map`` — is refused."""
    fs, conf = _two_way_job(TWO_WAY, make_dataset(("R1", "R2"), 20, seed=11))
    mapper = conf.inputs[1].mapper
    conf.inputs[1].mapper = SimpleNamespace(
        map=mapper.map, columnar_key_kind=mapper.columnar_key_kind
    )
    message = _refused(conf, fs)
    assert "'two-way'" in message and repr(conf.inputs[1].path) in message
    assert "not a Mapper" in message


def test_a_job_whose_reducer_is_not_a_kernel_is_refused():
    """A reducer that is not a ``KernelReducer`` — here one with only a
    per-group ``reduce`` — is refused."""
    fs, conf = _two_way_job(TWO_WAY, make_dataset(("R1", "R2"), 20, seed=11))
    conf.reducer = SimpleNamespace(reduce=lambda key, values, context: None)
    message = _refused(conf, fs)
    assert "'two-way'" in message and "not a KernelReducer" in message


def test_a_kernel_job_with_mixed_key_kinds_is_refused():
    fs, conf = _two_way_job(TWO_WAY, make_dataset(("R1", "R2"), 20, seed=11))
    conf.inputs[1].mapper = RoutedMapper(
        RowView("R2", "I"),
        OperatorRouter(conf.reducer.partitioning, MapOperator.PROJECT, prefix=0),
    )
    message = _refused(conf, fs)
    assert "'two-way'" in message and repr(conf.inputs[1].path) in message
    assert "'int'" in message and "'cell'" in message


class TestFallbackObservability:
    """With one plane there is nothing to report about it: no job span
    names a plane, or a reason for one."""

    def test_columnar_job_span_carries_no_reason(self):
        data = make_dataset(("R1", "R2"), 60, seed=11)
        _, recorder = _run("two_way", TWO_WAY, data, "serial")
        (span,) = [s for s in recorder.spans if s.kind == "job"]
        assert not {"data_plane", "data_plane_reason"} & set(span.attributes)


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
def test_endpoints_beyond_float64_join_on_records(algorithm, predicate, executor):
    """The columnar plane — which the job picks whatever its data —
    joins the exact values, off ``object`` columns: the reference's
    records."""
    data = _relations(BEYOND_FLOAT64)
    query = IntervalJoinQuery.parse([("R1", predicate, "R2")])
    result, recorder = _run(algorithm, query, data, executor, num_partitions=2)
    assert_matches_reference(query, data, result)
    assert len(result) == 2


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


#: The first job of each algorithm below, which reads endpoints beyond
#: float64 off the relation's own ``object`` columns.
FIRST_JOB_BEYOND_FLOAT64 = {
    "two_way": "two-way",
    "all_replicate": "all-replicate",
    "rccis": "rccis-flag",
    "pasm": "pasm-flag",
    "all_matrix": "all_matrix-join",
    "gen_matrix": "gen_matrix-flag",
    "two_way_cascade": "cascade-R2",
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
        assert recorder.job_results[0].name == FIRST_JOB_BEYOND_FLOAT64[algorithm]
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
