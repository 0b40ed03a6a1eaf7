"""RunReport: skew, straggler and empty-task diagnosis."""

from __future__ import annotations

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.mapreduce.counters import Counters
from repro.obs import RunReport, TraceRecorder
from repro.obs.span import Span
from repro.workloads import SyntheticConfig, generate_relation


def _job_spans(name, loads, outputs=None, logical=None, counters=None):
    """A finished job as the runner traces it: the job span (per-task
    loads, ranked ``key_loads``, counter deltas), its reduce phase and
    one committed task span per reduce task."""
    ranked = sorted(
        ((repr(key), load) for key, load in (logical or {}).items()),
        key=lambda item: (-item[1], item[0]),
    )
    job = Span(
        name=f"job:{name}", kind="job", span_id=1, parent_id=None,
        start=0.0, end=1.0,
        attributes={
            "job": name,
            "reduce_task_loads": list(loads),
            "key_loads": ranked,
        },
        counters=(counters or Counters()).snapshot(),
    )
    phase = Span(
        name="reduce", kind="phase", span_id=2, parent_id=1,
        start=0.0, end=1.0, attributes={"job": name},
    )
    tasks = [
        Span(
            name=f"reduce[{index}]", kind="task", span_id=3 + index,
            parent_id=2, start=0.0, end=0.01,
            attributes={
                "job": name, "phase": "reduce", "task_index": index,
                "input_records": load, "output_records": emitted,
            },
        )
        for index, (load, emitted) in enumerate(zip(loads, outputs or []))
    ]
    return tasks + [phase, job]


class TestLoadFlags:
    def test_balanced_job_not_flagged(self):
        report = RunReport.from_spans(
            _job_spans("even", [10, 11, 9, 10], outputs=[1, 1, 1, 1])
        )
        assert report.skewed_jobs == []
        assert report.flags_for(reason="skew") == []

    def test_hot_reducer_flagged(self):
        report = RunReport.from_spans(
            _job_spans("hot", [5, 5, 5, 85], outputs=[1, 1, 1, 1])
        )
        assert [j.name for j in report.skewed_jobs] == ["hot"]
        (flag,) = report.flags_for(reason="skew")
        assert flag.task_index == 3
        assert flag.load == 85
        assert "skew" in report.render()

    def test_empty_output_tasks_flagged(self):
        report = RunReport.from_spans(
            _job_spans("e", [10, 10], outputs=[5, 0])
        )
        (flag,) = report.flags_for(reason="empty-output")
        assert flag.task_index == 1

    def test_single_task_job_never_skewed(self):
        report = RunReport.from_spans(_job_spans("solo", [100], outputs=[3]))
        assert report.skewed_jobs == []


class TestStragglerFlags:
    def _task_span(self, sid, job, index, start, end) -> Span:
        return Span(
            name=f"reduce[{index}]",
            kind="task",
            span_id=sid,
            parent_id=None,
            start=start,
            end=end,
            attributes={"phase": "reduce", "job": job, "task_index": index},
        )

    def test_slow_task_flagged(self):
        spans = [
            self._task_span(1, "j", 0, 0.0, 0.010),
            self._task_span(2, "j", 1, 0.0, 0.011),
            self._task_span(3, "j", 2, 0.0, 0.100),
        ]
        report = RunReport.from_spans(spans)
        (flag,) = report.flags_for(reason="straggler")
        assert flag.task_index == 2

    def test_uniform_tasks_not_flagged(self):
        spans = [
            self._task_span(i, "j", i, 0.0, 0.010 + i * 0.001)
            for i in range(4)
        ]
        report = RunReport.from_spans(spans)
        assert report.flags_for(reason="straggler") == []

    def test_attempt_spans_excluded(self):
        """A slow *failed* attempt must never be flagged as a straggler
        — only committed ``kind="task"`` spans enter the calculation."""
        spans = [
            self._task_span(i, "j", i, 0.0, 0.010 + i * 0.001)
            for i in range(4)
        ]
        slow_attempt = Span(
            name="reduce[0]",
            kind="attempt",
            span_id=99,
            parent_id=None,
            start=0.0,
            end=5.0,
            attributes={"phase": "reduce", "job": "j", "task_index": 0},
        )
        report = RunReport.from_spans(spans + [slow_attempt])
        assert report.flags_for(reason="straggler") == []
        assert report.faults.attempt_spans == 1
        assert report.faults.overhead_seconds >= 5.0


class TestScriptedFaultStragglers:
    """Regression: under fault injection the non-committing attempt
    spans carry the retry history; straggler detection must diagnose the
    committed tasks only, identically to a fault-free run."""

    @staticmethod
    def _span(sid, index, seconds, kind="task") -> Span:
        return Span(
            name=f"reduce[{index}]",
            kind=kind,
            span_id=sid,
            parent_id=None,
            start=0.0,
            end=seconds,
            attributes={"phase": "reduce", "job": "two-way", "task_index": index},
        )

    def test_slow_failed_attempt_not_a_straggler(self):
        # Attempt 0 of reduce task 0 ran 200 ms and then failed; attempt
        # 1 won in ~1 ms like every other task.  The failed attempt
        # dwarfs every real task, so counting it would both skew the
        # median and flag a phantom straggler.
        tasks = [self._span(i, i, 0.001 + i * 0.0001) for i in range(5)]
        failed = self._span(99, 0, 0.2, kind="attempt")
        chaos = RunReport.from_spans(tasks + [failed])
        flagged = {
            (flag.job, flag.task_index)
            for flag in chaos.flags_for(reason="straggler")
        }
        assert ("two-way", 0) not in flagged
        # The overhead is visible where it belongs: the fault summary.
        assert chaos.faults.attempt_spans == 1
        assert chaos.faults.overhead_seconds >= 0.2
        # A fault-free run flags exactly the same stragglers.
        baseline = RunReport.from_spans(tasks)
        assert not baseline.faults.any_faults
        assert flagged == {
            (flag.job, flag.task_index)
            for flag in baseline.flags_for(reason="straggler")
        }
        # Counted as a committed task, the same span would be flagged.
        failed.kind = "task"
        counted = RunReport.from_spans(tasks + [failed])
        assert ("two-way", 0) in {
            (flag.job, flag.task_index)
            for flag in counted.flags_for(reason="straggler")
        }


class TestProfilerExtensions:
    def test_hot_keys_ranked_and_bounded(self):
        spans = _job_spans(
            "h", [10, 5],
            logical={"a": 7, "b": 7, "c": 1, "d": 3, "e": 2, "f": 4},
        )
        report = RunReport.from_spans(spans)
        (job,) = report.jobs
        # Ties break on repr(key) so the ranking is deterministic; the
        # report names the five hottest.
        assert job.hot_keys == [
            ("'a'", 7), ("'b'", 7), ("'f'", 4), ("'d'", 3), ("'e'", 2)
        ]
        assert "hottest keys" in report.render()

    def test_replication_factor_from_counters(self):
        counters = Counters()
        counters.increment("framework", "map_input_records", 100)
        counters.increment("framework", "map_output_records", 250)
        report = RunReport.from_spans(_job_spans("r", [5], counters=counters))
        assert report.replication_factors == {"r": 2.5}

    def test_check_replication_flags_drift(self):
        counters = Counters()
        counters.increment("framework", "map_input_records", 100)
        counters.increment("framework", "map_output_records", 250)
        report = RunReport.from_spans(_job_spans("r", [5], counters=counters))
        assert report.check_replication({"r": 2.5}) == []
        assert report.check_replication({"r": 2.45}, tolerance=0.05) == []
        (flag,) = report.check_replication({"r": 3.5})
        assert "replication regression" in flag and "r" in flag
        # Jobs absent from the run or the baseline are not regressions.
        assert report.check_replication({"other": 9.0}) == []


class TestSkewedWorkload:
    """The Figure-4 acceptance scenario: All-Replicate on a sequence
    join piles the load onto the right-most reducer; the report must
    flag it."""

    def _zipf_data(self):
        # R2 (the projected side of ``R1 before R2``) is zipf-skewed:
        # its start points pile into the first partition, which becomes
        # the hot reducer; R1 is replicated everywhere and only raises
        # the floor.
        return {
            "R1": generate_relation(
                "R1",
                SyntheticConfig(
                    n=100,
                    start_dist="uniform",
                    t_range=(0, 1_000),
                    length_range=(1, 100),
                    seed=0,
                ),
            ),
            "R2": generate_relation(
                "R2",
                SyntheticConfig(
                    n=600,
                    start_dist="zipf",
                    t_range=(0, 1_000),
                    length_range=(1, 100),
                    seed=1,
                ),
            ),
        }

    def test_all_replicate_hot_reducer_flagged(self):
        query = IntervalJoinQuery.parse([("R1", "before", "R2")])
        recorder = TraceRecorder()
        result = execute(
            query,
            self._zipf_data(),
            algorithm="all_replicate",
            num_partitions=6,
            observer=recorder,
        )
        assert len(result) > 0
        report = RunReport.from_spans(recorder.spans)
        assert [j.name for j in report.skewed_jobs] == ["all-replicate"]
        skew_flags = report.flags_for(reason="skew", job="all-replicate")
        assert skew_flags, "hot reducer must be flagged"
        # The flagged task is the one the job measured as hottest —
        # the right-most partition that receives every R1 replica.
        (job_result,) = recorder.job_results
        hottest = max(
            range(len(job_result.reduce_task_loads)),
            key=job_result.reduce_task_loads.__getitem__,
        )
        assert hottest in {flag.task_index for flag in skew_flags}


class TestReportFromAReloadedTrace:
    """``repro report`` reads a trace file, not a live recorder: the
    report of the reloaded spans is the one the run's own spans give,
    and it names the hot keys, empty-output tasks and fault counts the
    run's job results hold."""

    def test_reloaded_trace_renders_what_the_run_recorded(self, tmp_path):
        from repro.obs import JsonlSink, load_spans_jsonl

        data = TestSkewedWorkload()._zipf_data()
        trace = tmp_path / "t.jsonl"
        recorder = TraceRecorder(JsonlSink(str(trace)))
        result = execute(
            IntervalJoinQuery.parse([("R1", "before", "R2")]),
            data,
            algorithm="all_replicate",
            num_partitions=6,
            observer=recorder,
            faults=2014,
            max_attempts=3,
        )
        recorder.close()
        assert result.metrics.tasks_failed > 0

        text = RunReport.from_spans(load_spans_jsonl(str(trace))[0]).render()
        assert text == RunReport.from_spans(recorder.spans).render()
        lines = text.splitlines()
        for job in recorder.job_results:
            ranked = sorted(
                (
                    (repr(key), load)
                    for key, load in job.logical_reducer_loads.items()
                ),
                key=lambda item: (-item[1], item[0]),
            )[:5]
            hottest = ", ".join(f"{key}={load}" for key, load in ranked)
            assert f"    hottest keys: {hottest}" in lines
            for index, (load, emitted) in enumerate(
                zip(job.reduce_task_loads, job.reduce_task_outputs)
            ):
                flagged = any(
                    line.startswith(
                        f"  [empty-output] {job.name} task {index}:"
                    )
                    for line in lines
                )
                assert flagged == (load > 0 and emitted == 0)
        (faults,) = [line for line in lines if line.startswith("  faults:")]
        assert faults.startswith(
            f"  faults: {result.metrics.tasks_failed} failed, "
            f"{result.metrics.tasks_retried} retried;"
        )
