"""Fault parity: chaos runs must be invisible in the results.

The load-bearing invariant of :mod:`repro.faults` — any fault plan whose
per-task failures stay within the retry budget yields output tuples,
part files and counters (modulo the ``faults`` group) bit-identical to
a fault-free run, for every one of the paper's ten algorithms under
every executor.  The pinned plan below injects at least one failure in
a map phase AND a reduce phase of every algorithm (verified by
``test_pinned_plan_crashes_both_phases``), so these tests genuinely
exercise retry, not just the fast path.
"""

from __future__ import annotations

import pytest

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.faults import FaultPlan
from repro.obs import TraceRecorder

from tests.conftest import make_dataset

COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
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
]

#: The pinned chaos plan: seed 2014 (the paper's year) at rates that
#: hit both phases of every algorithm while staying within the
#: max_attempts=3 budget (max_failures_per_task defaults to 2).
PINNED_PLAN = dict(crash_rate=0.35, corrupt_rate=0.2, delay_rate=0.2)
PINNED_SEED = 2014


def pinned_plan() -> FaultPlan:
    return FaultPlan(PINNED_SEED, **PINNED_PLAN)


def _run(algorithm, query, data, executor, faults, max_attempts=3):
    recorder = TraceRecorder()
    result = execute(
        query,
        data,
        algorithm=algorithm,
        num_partitions=5,
        executor=executor,
        workers=2,
        observer=recorder,
        faults=faults,
        max_attempts=max_attempts if faults is not False else 1,
    )
    return result, recorder


def _counters_sans_faults(recorder):
    merged = {}
    for job_result in recorder.job_results:
        for group, values in job_result.counters.as_dict().items():
            if group == "faults":
                continue
            bucket = merged.setdefault(group, {})
            for name, value in values.items():
                bucket[name] = bucket.get(name, 0) + value
    return merged


def _task_span_profile(recorder):
    """Fingerprint of the *committed* task spans (attempt spans carry
    the chaos history and are excluded by construction)."""
    return sorted(
        (
            span.kind,
            span.name,
            span.attributes.get("job"),
            span.attributes.get("task_index"),
        )
        for span in recorder.spans
        if span.kind != "attempt"
    )


@pytest.mark.parametrize(
    "algorithm,query,relations",
    CASES,
    ids=[case[0] for case in CASES],
)
class TestFaultParity:
    @pytest.mark.parametrize(
        "executor", ["serial", "threads", "processes"]
    )
    def test_chaos_equals_fault_free(
        self, algorithm, query, relations, executor
    ):
        data = make_dataset(relations, 60, seed=11)
        baseline, base_rec = _run(
            algorithm, query, data, "serial", faults=False
        )
        chaos, chaos_rec = _run(
            algorithm, query, data, executor, faults=pinned_plan()
        )

        # Bit-identical output tuples.
        assert chaos.tuple_ids() == baseline.tuple_ids()
        assert len(baseline) > 0

        # The plan actually fired — retries happened.
        assert chaos.metrics.tasks_failed > 0
        assert chaos.metrics.tasks_retried == chaos.metrics.tasks_failed

        # Identical counters modulo the faults group.
        assert _counters_sans_faults(chaos_rec) == _counters_sans_faults(
            base_rec
        )

        # Identical part files, job by job.
        assert len(chaos_rec.job_results) == len(base_rec.job_results)
        for chaos_job, base_job in zip(
            chaos_rec.job_results, base_rec.job_results
        ):
            assert chaos_job.reduce_task_outputs == (
                base_job.reduce_task_outputs
            )
            assert chaos_job.reduce_task_loads == base_job.reduce_task_loads

        # The committed span set matches the fault-free run; failures
        # live only in the extra kind="attempt" spans.
        assert _task_span_profile(chaos_rec) == _task_span_profile(base_rec)
        assert any(s.kind == "attempt" for s in chaos_rec.spans)

    def test_pinned_plan_crashes_both_phases(
        self, algorithm, query, relations
    ):
        """The acceptance-criteria pin: the chaos plan injects >= 1
        failure in a map phase AND a reduce phase of every algorithm."""
        data = make_dataset(relations, 60, seed=11)
        _, recorder = _run(
            algorithm, query, data, "serial", faults=pinned_plan()
        )
        failed_phases = {
            span.attributes.get("phase")
            for span in recorder.spans
            if span.kind == "attempt"
        }
        assert {"map", "reduce"} <= failed_phases


def test_executor_counters_identical_under_chaos():
    """Even the faults group itself is executor-independent (the plan is
    identity-keyed, so retries land on the same tasks everywhere)."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
    per_executor = []
    for executor in ("serial", "threads", "processes"):
        _, recorder = _run(
            "rccis", COLOCATION, data, executor, faults=pinned_plan()
        )
        merged = {}
        for job_result in recorder.job_results:
            for group, values in job_result.counters.as_dict().items():
                bucket = merged.setdefault(group, {})
                for name, value in values.items():
                    bucket[name] = bucket.get(name, 0) + value
        per_executor.append(merged)
    assert per_executor[0] == per_executor[1] == per_executor[2]
    assert per_executor[0]["faults"]["tasks_failed"] > 0
