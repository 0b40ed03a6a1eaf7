"""Executor parity: ``threads`` and ``processes`` must equal ``serial``.

The parallel executors exist to prove task code is self-contained; these
tests pin the contract — identical output tuples, identical counters,
and (with an observer attached) the identical span set — for every one
of the paper's ten algorithms under both parallel backends.
"""

from __future__ import annotations

import pytest

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.obs import TraceRecorder

from tests.conftest import assert_matches_reference, dataset_for

COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)
#: A cyclic query: the cascade's last step checks a residual condition.
TRIANGLE = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3"), ("R1", "overlaps", "R3")]
)
#: Two attributes of R1 in two components: a 3-D Gen-Matrix grid.
MULTI_ATTRIBUTE = IntervalJoinQuery.parse(
    [("R1.I", "overlaps", "R2.I"), ("R1.J", "before", "R3.J")]
)

CASES = [
    ("two_way", IntervalJoinQuery.parse([("R1", "overlaps", "R2")]),
     ("R1", "R2")),
    ("rccis", COLOCATION, ("R1", "R2", "R3")),
    ("all_replicate", SEQUENCE, ("R1", "R2", "R3")),
    ("all_matrix", SEQUENCE, ("R1", "R2", "R3")),
    ("two_way_cascade", SEQUENCE, ("R1", "R2", "R3")),
    ("all_seq_matrix", HYBRID, ("R1", "R2", "R3")),
    ("pasm", HYBRID, ("R1", "R2", "R3")),
    ("gen_matrix", HYBRID, ("R1", "R2", "R3")),
    ("fcts", HYBRID, ("R1", "R2", "R3")),
    ("fstc", HYBRID, ("R1", "R2", "R3")),
    ("two_way_cascade", COLOCATION, ("R1", "R2", "R3")),
    ("two_way_cascade", TRIANGLE, ("R1", "R2", "R3")),
    ("gen_matrix", MULTI_ATTRIBUTE, ("R1", "R2", "R3")),
]
CASE_IDS = [
    *(case[0] for case in CASES[:-3]),
    "cascade_colocation", "cascade_triangle", "gen_matrix_multi_attribute",
]


def _run(algorithm, query, data, executor):
    recorder = TraceRecorder()
    result = execute(
        query,
        data,
        algorithm=algorithm,
        num_partitions=5,
        executor=executor,
        workers=2,
        observer=recorder,
    )
    return result, recorder


def _span_profile(recorder):
    """The order-insensitive span fingerprint of a run."""
    return sorted(
        (
            span.kind,
            span.name,
            span.attributes.get("job"),
            span.attributes.get("task_index"),
        )
        for span in recorder.spans
    )


def _assert_parity(serial_pack, parallel_pack):
    serial_result, serial_rec = serial_pack
    parallel_result, parallel_rec = parallel_pack

    # same tuples
    assert serial_result.tuple_ids() == parallel_result.tuple_ids()
    assert len(serial_result) > 0

    # same counters, job by job
    assert len(serial_rec.job_results) == len(parallel_rec.job_results)
    for serial_job, parallel_job in zip(
        serial_rec.job_results, parallel_rec.job_results
    ):
        assert serial_job.name == parallel_job.name
        assert (
            serial_job.counters.as_dict() == parallel_job.counters.as_dict()
        )
        assert serial_job.reduce_task_loads == parallel_job.reduce_task_loads
        assert (
            serial_job.reduce_task_outputs
            == parallel_job.reduce_task_outputs
        )

    # same metric totals
    for field in (
        "num_cycles",
        "map_output_records",
        "shuffled_records",
        "comparisons",
        "output_records",
    ):
        assert getattr(serial_result.metrics, field) == getattr(
            parallel_result.metrics, field
        ), field

    # same trace span set (names, kinds, job/task attribution)
    assert _span_profile(serial_rec) == _span_profile(parallel_rec)


@pytest.mark.parametrize("executor", ["threads", "processes"])
@pytest.mark.parametrize(
    "algorithm,query,names", CASES, ids=CASE_IDS
)
def test_parallel_matches_serial(algorithm, query, names, executor):
    data = dataset_for(query, 60, seed=11)
    serial_pack = _run(algorithm, query, data, "serial")
    parallel_pack = _run(algorithm, query, data, executor)
    _assert_parity(serial_pack, parallel_pack)
    assert_matches_reference(query, data, parallel_pack[0])


def test_planner_choice_parity_threads():
    """Parity also holds when the planner picks the algorithm."""
    query = IntervalJoinQuery.parse(
        [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
    )
    data = dataset_for(query, 80, seed=7)
    recorder_serial = TraceRecorder()
    serial = execute(
        query, data, num_partitions=6, executor="serial",
        observer=recorder_serial,
    )
    recorder_threads = TraceRecorder()
    threads = execute(
        query, data, num_partitions=6, executor="threads",
        observer=recorder_threads,
    )
    _assert_parity((serial, recorder_serial), (threads, recorder_threads))
