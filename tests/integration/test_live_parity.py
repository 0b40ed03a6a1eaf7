"""Live telemetry parity: monitoring must never change the run.

The contract of :mod:`repro.obs.live` — the hub, progress/ETA and the
status endpoint are strictly *passive*: with live telemetry off the run
is bit-identical to the seed behaviour, and with it on the output
tuples, counters and metric fingerprints (which exclude the
``wall``/``profile``/``live`` groups by construction) stay bit-identical
across all three executors, with or without chaos.  And the live state
is a function of the span stream alone: replaying a recorded run's
spans into a fresh hub rebuilds it.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.runner import run_job
from repro.mapreduce.task import Mapper, Reducer
from repro.obs import StatusServer, TelemetryHub, TraceRecorder

from tests.conftest import make_dataset
from tests.integration.test_executor_parity import CASES as ALL_ALGORITHMS
from tests.integration.test_fault_parity import (
    _counters_sans_faults,
    _task_span_profile,
    pinned_plan,
)

HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)

#: A representative slice of the paper's algorithms: the 1-bucket join,
#: a grid algorithm, and a hybrid composite.  The full ten-algorithm
#: sweep lives in test_executor_parity.py; live telemetry rides the
#: same dispatch paths, so three families pin the invariant.
CASES = [
    ("two_way", IntervalJoinQuery.parse([("R1", "overlaps", "R2")]),
     ("R1", "R2")),
    ("rccis", IntervalJoinQuery.parse(
        [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
    ), ("R1", "R2", "R3")),
    ("pasm", HYBRID, ("R1", "R2", "R3")),
]

EXECUTORS = ["serial", "threads", "processes"]


def _run(algorithm, query, data, executor, live=False, **kwargs):
    recorder = TraceRecorder(live=live)
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


def _job_counters(recorder):
    return [
        (job.name, job.counters.as_dict())
        for job in recorder.job_results
    ]


# ----------------------------------------------------------------------
# Passivity: live off == seed, live on == live off.
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "algorithm,query,relations", CASES, ids=[case[0] for case in CASES]
)
class TestLivePassivity:
    def test_live_off_by_default(self, algorithm, query, relations):
        data = make_dataset(relations, 60, seed=11)
        _, recorder = _run(algorithm, query, data, "serial")
        assert recorder.live is None
        names = {metric.name for metric in recorder.metrics.families()}
        assert not any(name.startswith("repro_live_") for name in names)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_live_on_changes_nothing(
        self, algorithm, query, relations, executor
    ):
        data = make_dataset(relations, 60, seed=11)
        plain, plain_rec = _run(algorithm, query, data, executor)
        live, live_rec = _run(algorithm, query, data, executor, live=True)

        assert live.tuple_ids() == plain.tuple_ids()
        assert len(plain) > 0
        assert _job_counters(live_rec) == _job_counters(plain_rec)
        # The default fingerprint excludes wall/profile/live, so the
        # monitored run hashes identically to the unmonitored one.
        assert (
            live_rec.metrics.fingerprint()
            == plain_rec.metrics.fingerprint()
        )
        assert _task_span_profile(live_rec) == _task_span_profile(plain_rec)

        # ... and the hub really did observe the run.
        snapshot = live_rec.live.snapshot()
        assert _phase_states(snapshot)
        assert snapshot["closed"] is True
        assert snapshot["progress"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Cross-executor parity with live telemetry attached.
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "algorithm,query,relations", CASES, ids=[case[0] for case in CASES]
)
def test_live_runs_identical_across_executors(algorithm, query, relations):
    data = make_dataset(relations, 60, seed=11)
    packs = [
        _run(algorithm, query, data, executor, live=True)
        for executor in EXECUTORS
    ]
    tuple_ids = [result.tuple_ids() for result, _ in packs]
    assert tuple_ids[0] == tuple_ids[1] == tuple_ids[2]
    fingerprints = [rec.metrics.fingerprint() for _, rec in packs]
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]
    counters = [_job_counters(rec) for _, rec in packs]
    assert counters[0] == counters[1] == counters[2]
    # What the hub saw is executor-independent too: the same phases,
    # each with the same tasks, all done.
    states = [_phase_states(rec.live.snapshot()) for _, rec in packs]
    assert states[0] == states[1] == states[2]
    assert states[0]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_chaos_with_live_equals_clean_without(executor):
    """Chaos + speculation + monitoring together stay invisible."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
    clean, clean_rec = _run("rccis", CASES[1][1], data, "serial",
                            faults=False, max_attempts=1)
    chaos, chaos_rec = _run(
        "rccis", CASES[1][1], data, executor,
        live=True,
        faults=pinned_plan(), max_attempts=3, speculative=True,
    )
    assert chaos.tuple_ids() == clean.tuple_ids()
    assert chaos.metrics.tasks_failed > 0
    assert _counters_sans_faults(chaos_rec) == _counters_sans_faults(
        clean_rec
    )
    assert _task_span_profile(chaos_rec) == _task_span_profile(clean_rec)


# ----------------------------------------------------------------------
# Live state is a function of the span stream.
# ----------------------------------------------------------------------

def _phase_states(snapshot):
    """Per (job, phase): total, done, still running, finished."""
    return {
        (job["job"], phase["phase"]): (
            phase["total_tasks"], phase["done_tasks"],
            phase["running_tasks"], phase["finished"],
        )
        for job in snapshot["jobs"]
        for phase in job["phases"]
    }


def _replayed(recorder):
    """A fresh hub fed the recorded spans: opened in the order they
    opened (span ids), emitted in the order they closed."""
    hub = TelemetryHub()
    for span in sorted(recorder.spans, key=lambda span: span.span_id):
        hub.opened(span)
    for span in recorder.spans:
        hub.emit(span)
    return hub


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "algorithm,query,relations",
    ALL_ALGORITHMS,
    ids=[case[0] for case in ALL_ALGORITHMS],
)
def test_replayed_spans_rebuild_the_live_state(
    algorithm, query, relations, executor
):
    data = make_dataset(relations, 60, seed=11)
    for chaos in (
        {},
        dict(faults=2014, max_attempts=3, speculative=True),
    ):
        _, recorder = _run(
            algorithm, query, data, executor, live=True, **chaos
        )
        live = _phase_states(recorder.live.snapshot())
        assert live == _phase_states(_replayed(recorder).snapshot())
        # Every task done exactly once and nothing left running, however
        # many failed or speculative attempts the phase also saw.
        tasks = {}
        for span in recorder.find(kind="task"):
            key = (span.attributes["job"], span.attributes["phase"])
            tasks[key] = tasks.get(key, 0) + 1
        for key, (total, done, running, finished) in live.items():
            assert (done, running, finished) == (tasks.get(key, 0), 0, True)
            assert done == total or key[1] == "shuffle"
        if chaos:
            assert recorder.find(kind="attempt")


class TokenizeMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


def _word_count_conf(reducer):
    return JobConf(
        name="wordcount",
        inputs=[InputSpec("in/doc", TokenizeMapper())],
        reducer=reducer,
        output="out",
        num_reduce_tasks=3,
    )


def _word_count_fs():
    fs = InMemoryFileSystem()
    fs.write("in/doc", ["the quick brown fox", "the lazy dog", "the fox"])
    return fs


# ----------------------------------------------------------------------
# The status endpoint, scraped mid-run.
# ----------------------------------------------------------------------

class DawdlingSumReducer(Reducer):
    """Sums per key, taking its time — keeps the run alive long enough
    for an HTTP scrape to find its tasks running."""

    def reduce(self, key, values, context):
        time.sleep(0.05)
        context.emit((key, sum(values)))


def _get(server, route):
    with urllib.request.urlopen(server.url + route, timeout=5) as response:
        return response.read().decode("utf-8")


def _progress(server):
    return json.loads(_get(server, "/progress"))


def _running_reduce_tasks(snapshot):
    return sum(
        phase["running_tasks"]
        for job in snapshot["jobs"]
        for phase in job["phases"]
        if phase["phase"] == "reduce"
    )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_endpoint_serves_metrics_and_progress_mid_run(executor):
    fs = _word_count_fs()
    recorder = TraceRecorder(live=True)
    server = StatusServer(recorder, port=0)
    server.start()
    try:
        worker = threading.Thread(
            target=run_job,
            args=(fs, _word_count_conf(DawdlingSumReducer())),
            kwargs=dict(executor=executor, workers=2, observer=recorder),
        )
        worker.start()
        try:
            # Poll /progress until a reduce task is visibly running —
            # its span opened, whichever executor runs its body.
            deadline = time.monotonic() + 10.0
            snapshot = _progress(server)
            while (
                not _running_reduce_tasks(snapshot)
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
                snapshot = _progress(server)
            assert _running_reduce_tasks(snapshot) > 0
            assert snapshot["jobs"][0]["job"] == "wordcount"
            assert snapshot["closed"] is False
            assert "heartbeats" not in snapshot

            # /metrics speaks Prometheus text and carries the live
            # families while tasks are still running.
            body = _get(server, "/metrics")
            assert "# TYPE repro_live_tasks gauge" in body
            assert 'repro_live_tasks{job="wordcount"' in body
            assert "repro_live_run_progress_ratio" in body

            # The dashboard renders from the in-flight spans.
            assert "wordcount" in _get(server, "/")
        finally:
            worker.join(timeout=30)
        assert not worker.is_alive()

        recorder.close()
        final = _progress(server)
        assert final["closed"] is True
        assert final["progress"] == pytest.approx(1.0)
        assert _running_reduce_tasks(final) == 0
        # Closing publishes the ETA-vs-actual reconciliation gauge.
        assert 'repro_live_run_seconds{kind="actual"}' in _get(
            server, "/metrics"
        )
    finally:
        server.close()

    assert sorted(fs.read_dir("out"))
