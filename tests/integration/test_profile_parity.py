"""Profiler passivity, chaos compatibility, and nothing left running.

Three invariants gate the data-plane profiler:

* **Passivity** — profiling must never change what a run computes.  With
  the profiler off, a recorder-observed run is bit-identical to the
  seed behaviour (no ``profile_*`` annotations); with it on,
  output tuples, part files and the deterministic ``run``-group metric
  fingerprint are bit-identical to the unprofiled run, for every
  executor.
* **Chaos compatibility** — ``--profile`` composes with fault
  injection: a profiled chaos run still equals the clean run on
  everything outside the allowlisted ``wall``/``faults`` groups.
* **Nothing rides along** — an observed run, profiled and live, starts
  no thread and no child process on any executor, and leaves nothing
  behind in the worker pool: telemetry is computed on the threads that
  open and close spans.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.mapreduce import runner
from repro.obs import JsonlSink, TraceRecorder, TraceSink, load_spans_jsonl
from repro.obs.metrics import GROUP_FAULTS, GROUP_WALL
from repro.obs.profile import data_plane_rows

from tests.conftest import make_dataset
from tests.integration.test_fault_parity import pinned_plan

EXECUTORS = ("serial", "threads", "processes")

SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)


def _run(
    query, data, executor, *, profile=False, faults=False, max_attempts=None,
    sinks=(),
):
    if max_attempts is None:
        max_attempts = 3 if faults is not False else 1
    recorder = TraceRecorder(*sinks, profile=profile)
    result = execute(
        query,
        data,
        num_partitions=5,
        executor=executor,
        workers=2,
        observer=recorder,
        faults=faults,
        max_attempts=max_attempts,
    )
    recorder.close()
    return result, recorder


@pytest.mark.parametrize("executor", EXECUTORS)
def test_profiled_run_is_bit_identical(executor):
    data = make_dataset(("R1", "R2", "R3"), 60, seed=5)
    plain, plain_rec = _run(SEQUENCE, data, executor)
    profiled, prof_rec = _run(SEQUENCE, data, executor, profile=True)

    assert profiled.tuple_ids() == plain.tuple_ids()
    assert len(plain) > 0

    # The default fingerprint (wall excluded) matches; the run group in
    # particular is untouched by profiling.
    assert prof_rec.metrics.fingerprint() == plain_rec.metrics.fingerprint()

    # Part files job by job.
    assert len(prof_rec.job_results) == len(plain_rec.job_results)
    for prof_job, plain_job in zip(
        prof_rec.job_results, plain_rec.job_results
    ):
        assert prof_job.reduce_task_outputs == plain_job.reduce_task_outputs


def test_profiler_off_records_nothing():
    """Profile off means OFF: no annotations and no rundown — the
    observed run is exactly the seed behaviour."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=5)
    _, recorder = _run(SEQUENCE, data, "serial", profile=False)
    assert recorder.profiler is None
    assert data_plane_rows(recorder.spans) == ([], [])
    assert not any(
        key.startswith("profile_")
        for span in recorder.spans
        for key in span.attributes
    )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_profiled_chaos_equals_clean(executor):
    """--profile + REPRO_FAULTS compose: the profiled chaos run matches
    the clean unprofiled run bit for bit outside the allowlisted
    groups."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=11)
    clean, clean_rec = _run(HYBRID, data, "serial")
    chaos, chaos_rec = _run(
        HYBRID, data, executor, profile=True, faults=pinned_plan()
    )

    assert chaos.tuple_ids() == clean.tuple_ids()
    assert chaos.metrics.tasks_failed > 0  # the plan actually fired

    exclude = (GROUP_WALL, GROUP_FAULTS)
    assert chaos_rec.metrics.fingerprint(
        exclude_groups=exclude
    ) == clean_rec.metrics.fingerprint(exclude_groups=exclude)


def _task_cpu_seconds(recorder):
    return sum(
        span.attributes.get("profile_cpu_seconds", 0)
        for span in recorder.spans
        if span.kind == "task"
    )


@pytest.mark.parametrize("executor", ("serial", "threads"))
def test_retry_budget_keeps_task_cpu_accounting(executor):
    """A retry budget must not blind the profiler: in-process attempts
    open their task span live whatever ``max_attempts`` is, so task CPU
    is charged (it used to read 0 under any budget > 1) and everything
    deterministic equals the single-attempt run."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=5)
    single, single_rec = _run(SEQUENCE, data, executor, profile=True)
    budget, budget_rec = _run(
        SEQUENCE, data, executor, profile=True, max_attempts=2
    )
    assert _task_cpu_seconds(single_rec) > 0
    assert _task_cpu_seconds(budget_rec) > 0
    assert budget.tuple_ids() == single.tuple_ids()
    assert (
        budget_rec.metrics.fingerprint() == single_rec.metrics.fingerprint()
    )
    # Every committed task span carries its own CPU charge.
    for recorder in (single_rec, budget_rec):
        tasks = [span for span in recorder.spans if span.kind == "task"]
        assert tasks
        assert all("profile_cpu_seconds" in s.attributes for s in tasks)


def _worker_threads(_):
    """Pool probe: this worker's pid and thread names.  The pause lets
    every worker of the pool pick one probe up."""
    time.sleep(0.05)
    return os.getpid(), [thread.name for thread in threading.enumerate()]


def test_profiled_processes_run_leaves_nothing_in_the_pool():
    """The pool is cached across runs, so anything a profiled run
    started in a worker would keep running through every later
    *unprofiled* query: off must mean nothing runs."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=5)
    _run(SEQUENCE, data, "processes", profile=True)

    pool = runner._process_pool(2)
    seen = {}
    deadline = time.monotonic() + 30.0
    while set(seen) != set(pool._processes) and time.monotonic() < deadline:
        probes = [pool.submit(_worker_threads, index) for index in range(4)]
        seen.update(probe.result(timeout=30) for probe in probes)
    assert set(seen) == set(pool._processes)
    for names in seen.values():
        assert not [name for name in names if name.startswith("repro-")]


class _Census(TraceSink):
    """What is alive beside the run, looked at mid-run: at every closing
    task span."""

    def __init__(self):
        self.threads, self.children = set(), set()

    def emit(self, span):
        if span.kind == "task":
            self.threads.update(t.name for t in threading.enumerate())
            self.children.update(
                child.pid for child in multiprocessing.active_children()
            )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_observed_run_starts_no_thread_and_no_process(executor):
    """``live=True, profile=True``: no telemetry thread, and no child
    process but the pool's workers, while tasks are closing."""
    data = make_dataset(("R1", "R2", "R3"), 60, seed=5)
    children_before = {
        child.pid for child in multiprocessing.active_children()
    }
    census = _Census()
    recorder = TraceRecorder(census, profile=True, live=True)
    execute(
        SEQUENCE, data, num_partitions=5, executor=executor, workers=2,
        observer=recorder,
    )
    recorder.close()

    assert census.threads  # the sink did look
    assert not [name for name in census.threads if name.startswith("repro-")]
    workers = (
        set(runner._process_pool(2)._processes)
        if executor == "processes" else set()
    )
    assert census.children - children_before <= workers


def test_serial_and_threads_report_cpu_and_memory():
    data = make_dataset(("R1", "R2", "R3"), 60, seed=5)
    for executor in ("serial", "threads"):
        _, recorder = _run(SEQUENCE, data, executor, profile=True)
        tasks = [span for span in recorder.spans if span.kind == "task"]
        assert any("profile_cpu_seconds" in s.attributes for s in tasks)
        phases = [span for span in recorder.spans if span.kind == "phase"]
        assert phases, executor
        assert all(
            span.attributes["profile_mem_rss_peak_bytes"] > 0
            for span in phases
        ), executor


@pytest.mark.parametrize("executor", ("serial", "processes"))
def test_rundown_reads_the_same_from_the_trace(executor, tmp_path):
    """The data-plane rundown is a function of the spans alone: the live
    recorder's spans and the JSONL trace they were written to give the
    same rows and notes — the shared-memory note of a ``processes``
    run included."""
    data = make_dataset(("R1", "R2"), 60, seed=7)
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
    trace = str(tmp_path / "trace.jsonl")
    _, recorder = _run(
        query, data, executor, profile=True, sinks=[JsonlSink(trace)]
    )
    live = data_plane_rows(recorder.spans)
    spans, warnings = load_spans_jsonl(trace)
    assert not warnings
    assert data_plane_rows(spans) == live
    rows, notes = live
    assert rows
    shm = [text for _, text in notes if text.startswith("shm transport")]
    assert bool(shm) == (executor == "processes")
