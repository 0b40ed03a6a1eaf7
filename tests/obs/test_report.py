"""RunReport: skew, straggler and empty-task diagnosis."""

from __future__ import annotations

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobResult
from repro.obs import RunReport, TraceRecorder
from repro.obs.span import Span
from repro.workloads import SyntheticConfig, generate_relation


def _job_result(
    name, loads, outputs=None, comparisons=None, logical=None,
    counters=None,
) -> JobResult:
    return JobResult(
        name=name,
        counters=counters or Counters(),
        reduce_task_loads=list(loads),
        logical_reducer_loads=dict(logical or {}),
        output=f"{name}/out",
        output_records=sum(outputs or []),
        reduce_task_outputs=list(outputs or []),
        reduce_task_comparisons=list(comparisons or []),
    )


class TestLoadFlags:
    def test_balanced_job_not_flagged(self):
        report = RunReport.from_observations(
            [_job_result("even", [10, 11, 9, 10], outputs=[1, 1, 1, 1])]
        )
        assert report.skewed_jobs == []
        assert report.flags_for(reason="skew") == []

    def test_hot_reducer_flagged(self):
        report = RunReport.from_observations(
            [_job_result("hot", [5, 5, 5, 85], outputs=[1, 1, 1, 1])]
        )
        assert [j.name for j in report.skewed_jobs] == ["hot"]
        (flag,) = report.flags_for(reason="skew")
        assert flag.task_index == 3
        assert flag.load == 85
        assert "skew" in report.render()

    def test_empty_output_tasks_flagged(self):
        report = RunReport.from_observations(
            [_job_result("e", [10, 10], outputs=[5, 0])]
        )
        (flag,) = report.flags_for(reason="empty-output")
        assert flag.task_index == 1

    def test_single_task_job_never_skewed(self):
        report = RunReport.from_observations(
            [_job_result("solo", [100], outputs=[3])]
        )
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
        report = RunReport.from_observations([], spans, straggler_factor=3.0)
        (flag,) = report.flags_for(reason="straggler")
        assert flag.task_index == 2

    def test_uniform_tasks_not_flagged(self):
        spans = [
            self._task_span(i, "j", i, 0.0, 0.010 + i * 0.001)
            for i in range(4)
        ]
        report = RunReport.from_observations([], spans)
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
        report = RunReport.from_observations([], spans + [slow_attempt])
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
        chaos = RunReport.from_observations([], tasks + [failed])
        flagged = {
            (flag.job, flag.task_index)
            for flag in chaos.flags_for(reason="straggler")
        }
        assert ("two-way", 0) not in flagged
        # The overhead is visible where it belongs: the fault summary.
        assert chaos.faults.attempt_spans == 1
        assert chaos.faults.overhead_seconds >= 0.2
        # A fault-free run flags exactly the same stragglers.
        baseline = RunReport.from_observations([], tasks)
        assert not baseline.faults.any_faults
        assert flagged == {
            (flag.job, flag.task_index)
            for flag in baseline.flags_for(reason="straggler")
        }
        # Counted as a committed task, the same span would be flagged.
        failed.kind = "task"
        counted = RunReport.from_observations([], tasks + [failed])
        assert ("two-way", 0) in {
            (flag.job, flag.task_index)
            for flag in counted.flags_for(reason="straggler")
        }


class TestProfilerExtensions:
    def test_hot_keys_ranked_and_bounded(self):
        result = _job_result(
            "h", [10, 5], logical={"a": 7, "b": 7, "c": 1, "d": 3}
        )
        report = RunReport.from_observations([result], top_keys=3)
        (job,) = report.jobs
        # Ties break on repr(key) so the ranking is deterministic.
        assert job.hot_keys == [("'a'", 7), ("'b'", 7), ("'d'", 3)]
        assert "hottest keys" in report.render()

    def test_replication_factor_from_counters(self):
        counters = Counters()
        counters.increment("framework", "map_input_records", 100)
        counters.increment("framework", "map_output_records", 250)
        report = RunReport.from_observations(
            [_job_result("r", [5], counters=counters)]
        )
        assert report.replication_factors == {"r": 2.5}

    def test_check_replication_flags_drift(self):
        counters = Counters()
        counters.increment("framework", "map_input_records", 100)
        counters.increment("framework", "map_output_records", 250)
        report = RunReport.from_observations(
            [_job_result("r", [5], counters=counters)]
        )
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
        report = RunReport.from_recorder(recorder)
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
