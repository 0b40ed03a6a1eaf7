"""Cross-plane parity: the columnar data plane must equal the records
plane bit-for-bit.

``REPRO_DATA_PLANE=columnar`` swaps the intermediate pair stream from
tuple-at-a-time records to struct-of-arrays columns (argsort shuffle,
shared-memory reduce transport under ``processes``) — and nothing else.
These tests pin the contract for every columnar-capable algorithm on
every executor:

* identical output tuples,
* identical per-job counters, reduce-task loads and part files,
* identical deterministic metrics fingerprint,
* identical trace span set,

plus the gating behaviour around it: non-columnar jobs fall back to the
records plane per job, fault injection does *not* (chaos runs stay on
the columnar plane and stay bit-identical), and profiling the columnar
plane is passive.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.obs import TraceRecorder

from tests.conftest import make_dataset
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

#: The columnar-capable algorithm surface: the two-way overlap join (int
#: partition keys), RCCIS (int keys, three relations) and the cascade in
#: both its key families — colocation steps route on partition indices,
#: sequence steps on 2-D grid cells.
CASES = [
    ("two_way", IntervalJoinQuery.parse([("R1", "overlaps", "R2")]),
     ("R1", "R2")),
    ("rccis", COLOCATION, ("R1", "R2", "R3")),
    ("two_way_cascade", COLOCATION, ("R1", "R2", "R3")),
    ("two_way_cascade", SEQUENCE, ("R1", "R2", "R3")),
]

CASE_IDS = ["two_way", "rccis", "cascade_colocation", "cascade_sequence"]


def _run(algorithm, query, data, executor, data_plane, **kwargs):
    recorder = TraceRecorder(profile=kwargs.pop("profile", False))
    result = execute(
        query,
        data,
        algorithm=algorithm,
        num_partitions=5,
        executor=executor,
        workers=2,
        observer=recorder,
        data_plane=data_plane,
        **kwargs,
    )
    recorder.close()
    return result, recorder


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
def test_columnar_matches_records(algorithm, query, names, executor):
    data = make_dataset(names, 60, seed=11)
    records_pack = _run(algorithm, query, data, executor, "records")
    columnar_pack = _run(algorithm, query, data, executor, "columnar")
    _assert_cross_plane_parity(records_pack, columnar_pack)


def test_env_switch_selects_columnar(monkeypatch):
    """``REPRO_DATA_PLANE`` is the switch when no argument is passed."""
    algorithm, query, names = CASES[0][0], CASES[0][1], CASES[0][2]
    data = make_dataset(names, 50, seed=3)
    explicit = execute(
        query, data, algorithm=algorithm, num_partitions=5,
        data_plane="columnar",
    )
    monkeypatch.setenv("REPRO_DATA_PLANE", "columnar")
    from_env = execute(query, data, algorithm=algorithm, num_partitions=5)
    assert from_env.tuple_ids() == explicit.tuple_ids()
    assert _metrics_facts(from_env) == _metrics_facts(explicit)


def test_unknown_plane_rejected():
    from repro.errors import MapReduceError

    data = make_dataset(("R1", "R2"), 20, seed=1)
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
    with pytest.raises(MapReduceError):
        execute(query, data, num_partitions=4, data_plane="vectorised")


@pytest.mark.parametrize(
    "algorithm,query",
    [("all_replicate", SEQUENCE), ("all_matrix", SEQUENCE)],
)
def test_non_columnar_algorithms_fall_back(algorithm, query):
    """Jobs that don't implement the columnar protocol run on the
    records plane even when columnar is requested — same answer, same
    deterministic facts, no error."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
    records_pack = _run(algorithm, query, data, "serial", "records")
    columnar_pack = _run(algorithm, query, data, "serial", "columnar")
    _assert_cross_plane_parity(records_pack, columnar_pack)


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
    clean, clean_rec = _run("two_way", query, data, executor, "columnar")
    chaos, chaos_rec = _run(
        "two_way", query, data, executor, "columnar",
        faults=pinned_plan(), max_attempts=3, speculative=True,
    )

    assert chaos.tuple_ids() == clean.tuple_ids()
    assert len(clean) > 0
    assert _counters_sans_faults(chaos_rec) == _counters_sans_faults(
        clean_rec
    )
    assert _task_span_profile(chaos_rec) == _task_span_profile(clean_rec)

    # Nothing fell back: every job ran columnar, no fallback was counted.
    assert all(job.data_plane == "columnar" for job in chaos_rec.job_results)
    assert chaos_rec.metrics.get("repro_data_plane_fallback_total") is None

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
    plain, plain_rec = _run("rccis", COLOCATION, data, executor, "columnar")
    profiled, prof_rec = _run(
        "rccis", COLOCATION, data, executor, "columnar", profile=True
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
        "two_way", query, data, executor, "columnar", profile=True
    )
    snapshot = recorder.metrics.as_dict()
    family = snapshot.get("repro_profile_shm_bytes_total")
    samples = family["samples"] if family else []
    if executor == "processes":
        assert sum(sample["value"] for sample in samples) > 0
    else:
        assert not samples


def test_explain_surfaces_data_plane(monkeypatch):
    from repro.obs.explain import explain_query

    monkeypatch.delenv("REPRO_DATA_PLANE", raising=False)
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
    plan = explain_query(query, num_partitions=4, data_plane="columnar")
    assert plan.data_plane == "columnar"
    assert "columnar" in plan.render()
    default = explain_query(query, num_partitions=4)
    assert default.data_plane == "records"
    assert default.as_dict()["data_plane"] == "records"


class TestFallbackObservability:
    """Per-job columnar fallbacks are observable, not silent: a labelled
    counter, the job span, the job result and (when the whole run fell
    back) one log warning all say *why* the records plane ran."""

    def _fallback_samples(self, recorder):
        metric = recorder.metrics.get("repro_data_plane_fallback_total")
        return dict(metric.samples()) if metric is not None else {}

    def test_protocol_gap_reason_recorded(self):
        """all_matrix implements no columnar protocol: every job falls
        back with the gate's reason, on the metric, the span and the
        job result alike."""
        data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
        _, recorder = _run(
            "all_matrix", SEQUENCE, data, "serial", "columnar"
        )
        samples = self._fallback_samples(recorder)
        assert samples
        assert all(
            reason == "mapper-no-columnar-protocol"
            for _, reason in samples
        )
        for job_result in recorder.job_results:
            assert job_result.data_plane == "records"
            assert (
                job_result.data_plane_fallback
                == "mapper-no-columnar-protocol"
            )
        job_spans = [s for s in recorder.spans if s.kind == "job"]
        assert job_spans
        assert all(
            s.attributes.get("data_plane_fallback")
            == "mapper-no-columnar-protocol"
            for s in job_spans
        )

    def test_no_fallback_metric_when_columnar_runs(self):
        data = make_dataset(("R1", "R2"), 60, seed=11)
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        result, recorder = _run(
            "two_way", query, data, "serial", "columnar"
        )
        assert not self._fallback_samples(recorder)
        assert all(
            job.data_plane == "columnar" for job in recorder.job_results
        )

    def test_fallback_counter_outside_fingerprint(self):
        """The fallback counter lives in the live metric group, so the
        deterministic fingerprint stays plane-independent even when the
        columnar request degrades."""
        data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
        _, records_rec = _run(
            "all_matrix", SEQUENCE, data, "serial", "records"
        )
        _, columnar_rec = _run(
            "all_matrix", SEQUENCE, data, "serial", "columnar"
        )
        assert (
            records_rec.metrics.fingerprint()
            == columnar_rec.metrics.fingerprint()
        )

    def test_whole_run_fallback_warns_once(self, caplog):
        import logging

        data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
        with caplog.at_level(logging.WARNING, logger="repro.columnar"):
            _run("all_matrix", SEQUENCE, data, "serial", "columnar")
        warnings = [
            record
            for record in caplog.records
            if "fell back to the records plane" in record.getMessage()
        ]
        assert len(warnings) == 1
        assert "mapper-no-columnar-protocol" in warnings[0].getMessage()

    def test_partial_or_records_runs_do_not_warn(self, caplog):
        import logging

        data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
        with caplog.at_level(logging.WARNING, logger="repro.columnar"):
            _run("all_matrix", SEQUENCE, data, "serial", "records")
            _run("rccis", COLOCATION, data, "serial", "columnar")
        assert not [
            record
            for record in caplog.records
            if "fell back to the records plane" in record.getMessage()
        ]

    def test_explain_notes_wholesale_fallback(self):
        from repro.obs.explain import explain_query

        query = SEQUENCE
        plan = explain_query(
            query,
            algorithm="all_matrix",
            num_partitions=4,
            data_plane="columnar",
        )
        assert plan.data_plane_note is not None
        assert "no columnar support" in plan.data_plane_note
        assert "data plane note:" in plan.render()
        assert plan.as_dict()["data_plane_note"] == plan.data_plane_note

        capable = explain_query(
            IntervalJoinQuery.parse([("R1", "overlaps", "R2")]),
            algorithm="two_way",
            num_partitions=4,
            data_plane="columnar",
        )
        assert capable.data_plane_note is None
