"""Unit tests for deterministic fault injection and task-attempt retry.

Covers the :mod:`repro.faults` plan machinery (reproducibility is the
load-bearing property), the runner's attempt loop across lifecycle
injection points (setup, combiner, cleanup, commit), the commit
protocol under corrupt output, speculation, environment resolution, the
observability of retries (attempt spans, fault counters, the RunReport
fault summary), and what a worker process killed mid-reduce leaves
behind (nothing).
"""

import multiprocessing
import os
import random
import signal
import time

import pytest

from repro.core.algorithms import rccis
from repro.core.algorithms.base import build_partitioning
from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.errors import FaultInjectedError, MapReduceError, WorkerPoolError
from repro.faults import (
    CORRUPT,
    CRASH,
    DELAY,
    FAULTS_ENV,
    MAX_ATTEMPTS_ENV,
    SPECULATIVE_ENV,
    FaultEvent,
    FaultPlan,
    ResolvedFaults,
    ScriptedFaultPlan,
    resolve_faults,
)
from repro.mapreduce import runner
from repro.mapreduce.fs import InMemoryFileSystem, LocalFileSystem
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.runner import run_job
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import Mapper, Reducer
from repro.obs import RunReport, TraceRecorder
from repro.workloads.synthetic import SyntheticConfig, generate_relation


class TokenizeMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit((key, sum(values)))


class SumCombiner(Reducer):
    def reduce(self, key, values, context):
        context.emit(sum(values))


class FailOnKeyReducer(SumReducer):
    """Sums every key but one, which raises — on every attempt."""

    def __init__(self, bad_key, error=RuntimeError):
        self.bad_key = bad_key
        self.error = error

    def reduce(self, key, values, context):
        if key == self.bad_key:
            raise self.error(f"cannot reduce {key!r}")
        super().reduce(key, values, context)


class KillingJoinReducer(rccis.JoinReducer):
    """``rccis-join``'s reducer, SIGKILLing the worker process that
    reduces key 0 — every time, or only while ``once_flag`` (a path) does
    not exist yet.  Travels to the workers by pickle, so its settings are
    instance state; it refuses to fire in the process that built it."""

    def __init__(self, *args, once_flag=None):
        super().__init__(*args)
        self.once_flag = once_flag
        self.parent_pid = os.getpid()

    def columnar_outputs(self, key, values, counters):
        if key == 0 and not (self.once_flag and os.path.exists(self.once_flag)):
            assert os.getpid() != self.parent_pid, "reduce ran in the parent"
            if self.once_flag:
                open(self.once_flag, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return super().columnar_outputs(key, values, counters)


@pytest.fixture
def fs():
    fs = InMemoryFileSystem()
    fs.write("in/doc", ["the quick brown fox", "the lazy dog", "the fox"])
    return fs


def word_count_conf(fs, **overrides):
    defaults = dict(
        name="wordcount",
        inputs=[InputSpec("in/doc", TokenizeMapper())],
        reducer=SumReducer(),
        output="out",
        num_reduce_tasks=3,
    )
    defaults.update(overrides)
    return JobConf(**defaults)


def expected_output(fs):
    clean = InMemoryFileSystem()
    clean.write("in/doc", list(fs.read("in/doc")))
    run_job(clean, word_count_conf(clean), faults=False)
    return sorted(clean.read_dir("out"))


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(MapReduceError):
            FaultEvent("explode")

    def test_unknown_crash_point_rejected(self):
        with pytest.raises(MapReduceError):
            FaultEvent(CRASH, "teardown")

    def test_delay_carries_seconds(self):
        event = FaultEvent(DELAY, "setup", 0.5)
        assert event.seconds == 0.5


class TestFaultPlanReproducibility:
    """Same seed => same schedule: the property the whole chaos CI lane
    depends on."""

    TASKS = [
        (job, phase, index)
        for job in ("join", "mark", "wordcount")
        for phase in ("map", "reduce")
        for index in range(8)
    ]

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2014, 123456789])
    def test_same_seed_same_schedule(self, seed):
        first = FaultPlan(seed)
        second = FaultPlan(seed)
        for job, phase, index in self.TASKS:
            assert first.schedule(job, phase, index, 4) == second.schedule(
                job, phase, index, 4
            )

    def test_schedule_ignores_global_random_state(self):
        plan = FaultPlan(42)
        random.seed(1)
        before = [plan.schedule(*task, 4) for task in self.TASKS]
        random.seed(999)
        random.random()
        after = [plan.schedule(*task, 4) for task in self.TASKS]
        assert before == after

    def test_schedule_ignores_query_order(self):
        plan = FaultPlan(42)
        forward = {
            task: plan.schedule(*task, 4) for task in self.TASKS
        }
        backward = {
            task: plan.schedule(*task, 4) for task in reversed(self.TASKS)
        }
        assert forward == backward

    def test_different_seeds_differ(self):
        a = FaultPlan(1)
        b = FaultPlan(2)
        assert any(
            a.schedule(*task, 4) != b.schedule(*task, 4)
            for task in self.TASKS
        )

    def test_failures_stop_within_budget(self):
        """Attempts past the drawn failure count carry no failure event,
        so max_attempts > max_failures_per_task always converges."""
        plan = FaultPlan(7, crash_rate=0.5, corrupt_rate=0.4)
        for job, phase, index in self.TASKS:
            schedule = plan.schedule(job, phase, index, 5)
            final = schedule[plan.max_failures_per_task:]
            assert all(
                event.kind == DELAY
                for events in final
                for event in events
            )


class TestFaultPlanParse:
    def test_bare_seed(self):
        plan = FaultPlan.parse("42")
        assert plan.seed == 42

    def test_options(self):
        plan = FaultPlan.parse(
            "7:crash=0.3,delay=0.2,corrupt=0.1,delay_seconds=0.05,"
            "max_failures=1"
        )
        assert (plan.seed, plan.crash_rate, plan.delay_rate) == (7, 0.3, 0.2)
        assert (plan.corrupt_rate, plan.max_failures_per_task) == (0.1, 1)

    def test_bad_seed_rejected(self):
        with pytest.raises(MapReduceError):
            FaultPlan.parse("not-a-seed")

    def test_unknown_option_rejected(self):
        with pytest.raises(MapReduceError):
            FaultPlan.parse("42:explosions=0.5")

    def test_bad_rates_rejected(self):
        with pytest.raises(MapReduceError):
            FaultPlan(1, crash_rate=1.5)
        with pytest.raises(MapReduceError):
            FaultPlan(1, crash_rate=0.7, corrupt_rate=0.7)


def scripted(job, phase, task_index, attempt, *events):
    return ScriptedFaultPlan({(job, phase, task_index, attempt): events})


class TestInjectionPoints:
    """Crashes scripted into user-code lifecycle hooks are retried, not
    silently swallowed."""

    def test_combiner_crash_is_retried(self, fs):
        expected = expected_output(fs)
        plan = scripted(
            "wordcount", "map", 0, 0, FaultEvent(CRASH, "combiner")
        )
        result = run_job(
            fs,
            word_count_conf(fs, combiner=SumCombiner()),
            faults=plan,
            max_attempts=2,
        )
        assert sorted(fs.read_dir("out")) == expected
        assert result.counters.value("faults", "tasks_failed") == 1
        assert result.counters.value("faults", "tasks_retried") == 1

    def test_map_cleanup_crash_is_retried(self, fs):
        expected = expected_output(fs)
        plan = scripted(
            "wordcount", "map", 0, 0, FaultEvent(CRASH, "cleanup")
        )
        result = run_job(fs, word_count_conf(fs), faults=plan, max_attempts=2)
        assert sorted(fs.read_dir("out")) == expected
        assert result.counters.value("faults", "tasks_retried") == 1

    def test_reduce_cleanup_crash_is_retried(self, fs):
        expected = expected_output(fs)
        plan = scripted(
            "wordcount", "reduce", 1, 0, FaultEvent(CRASH, "cleanup")
        )
        result = run_job(fs, word_count_conf(fs), faults=plan, max_attempts=2)
        assert sorted(fs.read_dir("out")) == expected
        assert result.counters.value("faults", "tasks_retried") == 1

    def test_corrupt_output_discarded_and_retried(self, fs):
        expected = expected_output(fs)
        plan = scripted(
            "wordcount", "reduce", 0, 0, FaultEvent(CORRUPT, "commit")
        )
        result = run_job(fs, word_count_conf(fs), faults=plan, max_attempts=2)
        assert sorted(fs.read_dir("out")) == expected
        assert result.counters.value("faults", "tasks_retried") == 1
        # Nothing uncommitted survives the run.
        assert not [
            path for path in fs.list_prefix("out/") if "_temporary" in path
        ]

    def test_crash_not_swallowed_without_budget(self, fs):
        plan = scripted(
            "wordcount", "map", 0, 0, FaultEvent(CRASH, "cleanup")
        )
        with pytest.raises(FaultInjectedError):
            run_job(fs, word_count_conf(fs), faults=plan, max_attempts=1)

    def test_budget_exhaustion_raises_original_error(self, fs):
        plan = ScriptedFaultPlan({
            ("wordcount", "map", 0, attempt): (FaultEvent(CRASH, "setup"),)
            for attempt in range(5)
        })
        with pytest.raises(FaultInjectedError) as excinfo:
            run_job(fs, word_count_conf(fs), faults=plan, max_attempts=3)
        assert excinfo.value.kind == CRASH


class TestJobAbort:
    """A job that fails in its reduce phase is aborted: the tasks that
    did win leave nothing staged under ``<output>/_temporary``."""

    @pytest.fixture(params=["memory", "local"])
    def any_fs(self, request, tmp_path):
        if request.param == "memory":
            fs = InMemoryFileSystem()
        else:
            fs = LocalFileSystem(str(tmp_path / "fsroot"))
        fs.write("in/doc", ["the quick brown fox", "the lazy dog", "the fox"])
        return fs

    @staticmethod
    def assert_nothing_staged(fs):
        assert not [
            path for path in fs.list_prefix("out/") if "_temporary" in path
        ]
        if isinstance(fs, LocalFileSystem):
            assert not os.path.isdir(os.path.join(fs.root, "out", "_temporary"))

    def failing_conf(self, fs, error):
        return word_count_conf(
            fs, reducer=FailOnKeyReducer("lazy", error), num_reduce_tasks=4
        )

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_exhausted_budget_leaves_no_staged_output(self, any_fs, executor):
        with pytest.raises(RuntimeError, match="cannot reduce 'lazy'"):
            run_job(
                any_fs, self.failing_conf(any_fs, RuntimeError),
                executor=executor, workers=2, faults=False, max_attempts=2,
            )
        assert any_fs.list_prefix("out/") == []
        self.assert_nothing_staged(any_fs)

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_interrupt_leaves_no_staged_output(self, any_fs, executor):
        with pytest.raises(KeyboardInterrupt):
            run_job(
                any_fs, self.failing_conf(any_fs, KeyboardInterrupt),
                executor=executor, workers=2, faults=False, max_attempts=1,
            )
        assert any_fs.list_prefix("out/") == []
        self.assert_nothing_staged(any_fs)

    def test_succeeding_and_recovering_jobs_commit_as_before(self, any_fs):
        clean = run_job(
            any_fs, word_count_conf(any_fs, output="clean"), faults=False
        )
        plan = scripted(
            "wordcount", "reduce", 1, 0, FaultEvent(CRASH, "cleanup")
        )
        recovered = run_job(
            any_fs, word_count_conf(any_fs), faults=plan, max_attempts=2
        )
        assert recovered.counters.value("faults", "tasks_retried") == 1
        assert recovered.output_records == clean.output_records
        assert sorted(map(tuple, any_fs.read_dir("out"))) == sorted(
            map(tuple, any_fs.read_dir("clean"))
        )
        assert [path[len("out/"):] for path in any_fs.list_prefix("out/")] == [
            path[len("clean/"):] for path in any_fs.list_prefix("clean/")
        ]
        self.assert_nothing_staged(any_fs)


class TestSeededChaosParity:
    """A seeded plan within the retry budget is invisible in the output."""

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_output_and_counters_identical(self, fs, executor, seed):
        expected = expected_output(fs)
        clean = InMemoryFileSystem()
        clean.write("in/doc", list(fs.read("in/doc")))
        baseline = run_job(clean, word_count_conf(clean), faults=False)
        result = run_job(
            fs,
            word_count_conf(fs),
            executor=executor,
            workers=2,
            faults=f"{seed}:crash=0.5,corrupt=0.3,delay=0.2",
            max_attempts=3,
        )
        assert sorted(fs.read_dir("out")) == expected
        chaos_counters = {
            group: values
            for group, values in result.counters.as_dict().items()
            if group != "faults"
        }
        assert chaos_counters == baseline.counters.as_dict()

    def test_attempt_spans_and_task_spans(self, fs):
        recorder = TraceRecorder()
        result = run_job(
            fs,
            word_count_conf(fs),
            faults="7:crash=0.5,corrupt=0.3",
            max_attempts=3,
            observer=recorder,
        )
        failed = result.counters.value("faults", "tasks_failed")
        assert failed > 0
        attempts = [s for s in recorder.spans if s.kind == "attempt"]
        assert len(attempts) == failed
        for span in attempts:
            assert "attempt" in span.attributes
            assert "error" in span.attributes
        # Winning attempts keep the regular task spans: one per map
        # input plus one per reduce task, exactly as fault-free.
        tasks = [s for s in recorder.spans if s.kind == "task"]
        assert len(tasks) == 1 + 3

    def test_report_summarises_retry_overhead(self, fs):
        recorder = TraceRecorder()
        run_job(
            fs,
            word_count_conf(fs),
            faults="7:crash=0.5,corrupt=0.3",
            max_attempts=3,
            observer=recorder,
        )
        report = RunReport.from_recorder(recorder)
        assert report.faults.any_faults
        assert report.faults.tasks_failed > 0
        assert report.faults.attempt_spans == report.faults.tasks_failed
        assert "faults:" in report.render()


class TestSpeculation:
    def test_delayed_winner_gets_wasted_backup(self, fs):
        expected = expected_output(fs)
        recorder = TraceRecorder()
        result = run_job(
            fs,
            word_count_conf(fs),
            faults="7:crash=0.0,corrupt=0.0,delay=1.0",
            max_attempts=2,
            speculative=True,
            observer=recorder,
        )
        assert sorted(fs.read_dir("out")) == expected
        wasted = result.counters.value("faults", "speculative_wasted")
        assert wasted == 1 + 3  # every task is delayed under delay=1.0
        backups = [
            s
            for s in recorder.spans
            if s.kind == "attempt" and s.attributes.get("speculative")
        ]
        assert len(backups) == wasted
        assert not [
            path for path in fs.list_prefix("out/") if "_temporary" in path
        ]

    def test_speculation_off_by_default(self, fs):
        result = run_job(
            fs,
            word_count_conf(fs),
            faults="7:crash=0.0,corrupt=0.0,delay=1.0",
            max_attempts=2,
        )
        assert result.counters.value("faults", "speculative_wasted") == 0


class TestTaskTimeout:
    """``task_timeout`` fails an overrunning attempt into the same
    retry/backoff path an injected crash takes."""

    def _delayed_first_attempt(self):
        # Under the serial executor the delay is virtual time, so the
        # overrun is deterministic: 0.5 s observed against a 0.2 s limit.
        return scripted(
            "wordcount", "reduce", 1, 0, FaultEvent(DELAY, "setup", 0.5)
        )

    def test_timed_out_attempt_is_retried(self, fs):
        expected = expected_output(fs)
        recorder = TraceRecorder()
        result = run_job(
            fs,
            word_count_conf(fs),
            executor="serial",
            faults=self._delayed_first_attempt(),
            max_attempts=2,
            task_timeout=0.2,
            observer=recorder,
        )
        assert sorted(fs.read_dir("out")) == expected
        assert result.counters.value("faults", "tasks_failed") == 1
        assert result.counters.value("faults", "tasks_retried") == 1
        (failed,) = [s for s in recorder.spans if s.kind == "attempt"]
        assert failed.attributes["error"] == "TaskTimeoutError"
        assert failed.attributes["task_index"] == 1
        (winner,) = [
            s
            for s in recorder.spans
            if s.kind == "task" and s.name == "reduce[1]"
        ]
        assert winner.attributes["attempt"] == 1

    def test_timeout_past_the_budget_propagates(self, fs):
        from repro.errors import TaskTimeoutError

        with pytest.raises(TaskTimeoutError):
            run_job(
                fs,
                word_count_conf(fs),
                executor="serial",
                faults=self._delayed_first_attempt(),
                max_attempts=1,
                task_timeout=0.2,
            )


class TestResolution:
    def test_inactive_by_default(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        monkeypatch.delenv(MAX_ATTEMPTS_ENV, raising=False)
        monkeypatch.delenv(SPECULATIVE_ENV, raising=False)
        resolved = resolve_faults()
        assert resolved.plan is None
        assert resolved.max_attempts == 1
        assert not resolved.speculative
        assert resolved.task_timeout is None

    def test_environment_is_consulted(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "42:crash=0.25")
        monkeypatch.setenv(MAX_ATTEMPTS_ENV, "5")
        monkeypatch.setenv(SPECULATIVE_ENV, "1")
        resolved = resolve_faults()
        assert resolved.plan.seed == 42
        assert resolved.plan.crash_rate == 0.25
        assert resolved.max_attempts == 5
        assert resolved.speculative

    def test_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "42")
        monkeypatch.setenv(MAX_ATTEMPTS_ENV, "5")
        resolved = resolve_faults(faults=7, max_attempts=2, speculative=False)
        assert resolved.plan.seed == 7
        assert resolved.max_attempts == 2
        assert not resolved.speculative

    def test_false_forces_injection_off(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "42")
        resolved = resolve_faults(faults=False, max_attempts=1)
        assert resolved.plan is None

    def test_plan_implies_retry_budget(self):
        assert resolve_faults(faults=42).max_attempts > 1

    def test_bad_values_rejected(self, monkeypatch):
        with pytest.raises(MapReduceError):
            resolve_faults(faults=object())
        with pytest.raises(MapReduceError):
            resolve_faults(max_attempts=0)
        monkeypatch.setenv(MAX_ATTEMPTS_ENV, "many")
        with pytest.raises(MapReduceError):
            resolve_faults()

    def test_backoff_grows_and_caps(self):
        resolved = ResolvedFaults(max_attempts=10)
        values = [resolved.backoff_seconds(a) for a in range(1, 10)]
        assert values == sorted(values)
        assert values[0] == resolved.backoff_base
        assert values[-1] == resolved.backoff_cap
        assert resolved.backoff_seconds(0) == 0.0


class TestWorkerPoolError:
    def test_carries_job_phase_and_pending_tasks(self):
        error = WorkerPoolError("join", "map", range(12), "worker died")
        assert error.job == "join"
        assert error.phase == "map"
        assert error.pending_tasks == tuple(range(12))
        message = str(error)
        assert "join" in message and "map" in message
        assert "worker died" in message
        assert "12 total" in message  # long index lists are truncated
        assert isinstance(error, MapReduceError)

    def test_submit_attempt_wraps_broken_pool(self, monkeypatch, fs):
        """A pool that breaks under an attempt is dropped from the cache
        and surfaces naming the job, the phase and the task."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.mapreduce import runner

        class BrokenPool:
            def submit(self, fn, payload):
                raise BrokenProcessPool("boom")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        pool = BrokenPool()
        monkeypatch.setattr(runner, "_process_pool", lambda workers: pool)
        monkeypatch.setitem(runner._pools, 2, pool)
        with pytest.raises(WorkerPoolError) as excinfo:
            run_job(
                fs, word_count_conf(fs), executor="processes", workers=2,
                faults=False,
            )
        assert excinfo.value.job == "wordcount"
        assert excinfo.value.phase == "map"
        assert excinfo.value.pending_tasks == (0,)
        assert 2 not in runner._pools

    def test_fault_error_survives_pickling(self):
        import pickle

        error = FaultInjectedError(CRASH, "combiner")
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.kind, clone.point) == (CRASH, "combiner")
        assert str(clone) == str(error)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestWorkerKilledMidReduce:
    """A worker SIGKILLed inside a columnar ``rccis-join`` reduce task
    (``processes``, shared-memory transport): the job ends with a precise
    error and a clean state, or — given a retry budget — succeeds."""

    QUERY = IntervalJoinQuery.parse(
        [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
    )
    ATTRIBUTES = {name: "I" for name in QUERY.relations}

    @pytest.fixture
    def flagged(self):
        """``(fs, partitioning)`` after a clean RCCIS run: the flag
        cycle's output for the join cycle to read, and the clean tuples
        under ``rccis/output``."""
        data = {
            name: generate_relation(
                name,
                SyntheticConfig(
                    60, t_range=(0, 400), length_range=(1, 40), seed=seed
                ),
            )
            for seed, name in enumerate(self.QUERY.relations)
        }
        fs = InMemoryFileSystem()
        clean = execute(
            self.QUERY, data, "rccis", num_partitions=4, fs=fs,
            executor="serial", faults=False,
        )
        assert len(clean) > 0
        return fs, build_partitioning(self.QUERY, data, 4)

    def join_job(self, parts, output, reducer=rccis.JoinReducer, **settings):
        """RCCIS's join cycle, reduced by ``reducer``."""
        return JobConf(
            name="rccis-join",
            inputs=[
                InputSpec(
                    "rccis/flags", rccis.RouteMapper(self.ATTRIBUTES, parts)
                )
            ],
            reducer=reducer(self.QUERY, self.ATTRIBUTES, parts, **settings),
            output=output,
            num_reduce_tasks=4,
            partitioner=RoundRobinKeyPartitioner(),
        )

    @staticmethod
    def run(fs, conf, max_attempts=1):
        return run_job(
            fs, conf, executor="processes", workers=2, faults=False,
            max_attempts=max_attempts,
        )

    @staticmethod
    def worker_pids():
        return {child.pid for child in multiprocessing.active_children()}

    def test_kill_without_budget_fails_precisely_and_cleanly(self, flagged):
        fs, parts = flagged
        runner.shutdown_worker_pools()
        others = self.worker_pids()
        assert self.run(fs, self.join_job(parts, "first")).data_plane == "columnar"
        pool = runner._pools[2]
        workers = self.worker_pids() - others
        assert workers
        segments = set(os.listdir("/dev/shm"))

        with pytest.raises(WorkerPoolError) as excinfo:
            self.run(fs, self.join_job(parts, "killed", KillingJoinReducer))
        error = excinfo.value
        assert (error.job, error.phase) == ("rccis-join", "reduce")
        assert error.pending_tasks == (0,)  # key 0 reduces in task 0
        assert set(os.listdir("/dev/shm")) <= segments
        assert fs.list_prefix("killed") == []  # _temporary/ included
        assert runner._pools.get(2) is not pool
        deadline = time.monotonic() + 10
        while workers & self.worker_pids() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not workers & self.worker_pids()  # no orphan of the dead pool

        self.run(fs, self.join_job(parts, "next"))
        assert runner._pools[2] is not pool
        assert list(fs.read_dir("next")) == list(fs.read_dir("rccis/output"))
        assert set(os.listdir("/dev/shm")) <= segments

    def test_one_kill_within_budget_is_retried(self, flagged, tmp_path):
        fs, parts = flagged
        segments = set(os.listdir("/dev/shm"))
        flag = tmp_path / "killed-once"
        conf = self.join_job(
            parts, "recovered", KillingJoinReducer, once_flag=str(flag)
        )
        recovered = self.run(fs, conf, max_attempts=3)
        assert flag.exists()
        assert recovered.data_plane == "columnar"
        assert recovered.counters.value("faults", "tasks_retried") >= 1
        assert list(fs.read_dir("recovered")) == list(fs.read_dir("rccis/output"))
        assert [path[len("recovered/"):] for path in fs.list_prefix("recovered")] == [
            f"part-{task:05d}" for task in range(4)
        ]
        assert set(os.listdir("/dev/shm")) <= segments
