"""Unit tests for job execution (the classic word-count, plus lifecycle,
counter semantics, and executor/worker resolution)."""

import pytest

from repro.errors import MapReduceError
from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.runner import (
    EXECUTOR_ENV,
    EXECUTORS,
    WORKERS_ENV,
    resolve_executor,
    resolve_workers,
    run_job,
)
from repro.mapreduce.task import Mapper, Reducer


class TokenizeMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit((key, sum(values)))


class SumCombiner(Reducer):
    """Combiner variant: emits the partial sum as the new *value* (a
    combiner's emissions feed the shuffle under the same key)."""

    def reduce(self, key, values, context):
        context.emit(sum(values))


class CountGroupReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit((key, len(values)))


class LifecycleMapper(Mapper):
    def __init__(self):
        self.events = []

    def setup(self, context):
        self.events.append("setup")

    def map(self, record, context):
        self.events.append("map")
        context.emit(0, record)

    def cleanup(self, context):
        self.events.append("cleanup")


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


class TestWordCount:
    def test_output(self, fs):
        run_job(fs, word_count_conf(fs))
        counts = dict(fs.read_dir("out"))
        assert counts == {
            "the": 3,
            "quick": 1,
            "brown": 1,
            "fox": 2,
            "lazy": 1,
            "dog": 1,
        }

    def test_framework_counters(self, fs):
        result = run_job(fs, word_count_conf(fs))
        c = result.counters
        assert c.value("framework", "map_input_records") == 3
        assert c.value("framework", "map_output_records") == 9
        assert c.value("framework", "shuffle_records") == 9
        assert c.value("framework", "reduce_input_groups") == 6
        assert result.output_records == 6

    def test_logical_reducer_loads(self, fs):
        result = run_job(fs, word_count_conf(fs))
        assert result.logical_reducer_loads["the"] == 3
        assert sum(result.logical_reducer_loads.values()) == 9

    def test_reduce_task_loads_cover_everything(self, fs):
        result = run_job(fs, word_count_conf(fs))
        assert sum(result.reduce_task_loads) == 9
        assert len(result.reduce_task_loads) == 3

    def test_threads_executor_same_output(self, fs):
        run_job(fs, word_count_conf(fs, output="out-serial"))
        run_job(
            fs, word_count_conf(fs, output="out-threads"), executor="threads"
        )
        assert sorted(fs.read_dir("out-serial")) == sorted(
            fs.read_dir("out-threads")
        )

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_parallel_executor_bit_identical(self, fs, executor):
        serial = run_job(fs, word_count_conf(fs, output="out-serial"))
        parallel = run_job(
            fs,
            word_count_conf(fs, output=f"out-{executor}"),
            executor=executor,
            workers=2,
        )
        assert sorted(fs.read_dir("out-serial")) == sorted(
            fs.read_dir(f"out-{executor}")
        )
        assert serial.counters.as_dict() == parallel.counters.as_dict()
        assert serial.reduce_task_loads == parallel.reduce_task_loads
        assert serial.reduce_task_outputs == parallel.reduce_task_outputs

    def test_unknown_executor(self, fs):
        with pytest.raises(MapReduceError):
            run_job(fs, word_count_conf(fs), executor="gpu")

    def test_no_inputs_rejected(self, fs):
        conf = word_count_conf(fs)
        conf.inputs = []
        with pytest.raises(MapReduceError):
            run_job(fs, conf)

    def test_zero_reduce_tasks_rejected(self, fs):
        conf = word_count_conf(fs, num_reduce_tasks=0)
        with pytest.raises(MapReduceError):
            run_job(fs, conf)


class TestCombiner:
    def test_combiner_reduces_shuffle_volume(self, fs):
        plain = run_job(fs, word_count_conf(fs, output="out1"))
        combined = run_job(
            fs, word_count_conf(fs, output="out2", combiner=SumCombiner())
        )
        assert dict(fs.read_dir("out1")) == dict(fs.read_dir("out2"))
        assert combined.shuffled_records < plain.shuffled_records
        assert combined.counters.value("framework", "combine_input_records") == 9


class TestLifecycle:
    def test_setup_cleanup_once_per_task(self):
        fs = InMemoryFileSystem()
        fs.write("in", ["a", "b"])
        mapper = LifecycleMapper()
        conf = JobConf(
            name="lifecycle",
            inputs=[InputSpec("in", mapper)],
            reducer=CountGroupReducer(),
            output="out",
            num_reduce_tasks=1,
        )
        # Pinned to serial and fault-free: the assertion watches
        # parent-side mutation of the mapper instance, which neither a
        # process worker nor a fault-mode attempt (each attempt runs a
        # pristine deep copy) can perform.
        run_job(fs, conf, executor="serial", faults=False)
        assert mapper.events == ["setup", "map", "map", "cleanup"]

    def test_multiple_inputs_under_processes(self):
        fs = InMemoryFileSystem()
        fs.write("in/a", ["x y"])
        fs.write("in/b", ["y z"])
        conf = JobConf(
            name="multi",
            inputs=[
                InputSpec("in/a", TokenizeMapper()),
                InputSpec("in/b", TokenizeMapper()),
            ],
            reducer=SumReducer(),
            output="out",
            num_reduce_tasks=2,
        )
        run_job(fs, conf, executor="processes", workers=2)
        assert dict(fs.read_dir("out")) == {"x": 1, "y": 2, "z": 1}

    def test_multiple_inputs_each_get_own_mapper_run(self):
        fs = InMemoryFileSystem()
        fs.write("in/a", ["x y"])
        fs.write("in/b", ["y z"])
        conf = JobConf(
            name="multi",
            inputs=[
                InputSpec("in/a", TokenizeMapper()),
                InputSpec("in/b", TokenizeMapper()),
            ],
            reducer=SumReducer(),
            output="out",
            num_reduce_tasks=2,
        )
        run_job(fs, conf)
        assert dict(fs.read_dir("out")) == {"x": 1, "y": 2, "z": 1}


class TestResolution:
    def test_executor_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert resolve_executor(None) == "serial"

    def test_executor_env_fallback(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "threads")
        assert resolve_executor(None) == "threads"
        # An explicit argument always wins over the environment.
        assert resolve_executor("processes") == "processes"

    def test_executor_names(self):
        assert EXECUTORS == ("serial", "threads", "processes")
        for name in EXECUTORS:
            assert resolve_executor(name) == name

    def test_unknown_executor_rejected(self, monkeypatch):
        with pytest.raises(MapReduceError):
            resolve_executor("gpu")
        monkeypatch.setenv(EXECUTOR_ENV, "quantum")
        with pytest.raises(MapReduceError):
            resolve_executor(None)

    def test_workers_default_positive(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) >= 1

    def test_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(5) == 5

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "two", True])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(MapReduceError):
            resolve_workers(bad)

    def test_invalid_workers_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "zero")
        with pytest.raises(MapReduceError):
            resolve_workers(None)

    def test_run_job_rejects_bad_workers(self, monkeypatch):
        fs = InMemoryFileSystem()
        fs.write("in/doc", ["a b"])
        conf = word_count_conf(fs)
        with pytest.raises(MapReduceError):
            run_job(fs, conf, executor="threads", workers=0)


class RendezvousReducer(SumReducer):
    """Holds reduce task 0 until every concurrent job has reached its
    reduce phase, so no job commits before all of them have started."""

    barrier = None  # set per test; class-level so deep copies share it

    def setup(self, context):
        if context.task_index == 0:
            type(self).barrier.wait(timeout=30)


class TestSharedFileSystem:
    def test_concurrent_jobs_keep_their_own_commit_accounting(self):
        """Two ``run_job`` calls on one file system, from two threads,
        each under its own recorder: the commit-protocol metrics land in
        the recorder of the job that staged the file.  The file system
        knows no observer at all — the counts are folded from each job's
        own spans (it used to hold *one* ``metrics``/``profiler`` pair,
        overwritten by whichever job started last)."""
        import sys
        import threading

        from repro.obs import TraceRecorder

        fs = InMemoryFileSystem()
        fs.write("in/doc", ["the quick brown fox", "the lazy dog", "the fox"])
        reduce_tasks = {"first": 3, "second": 5}
        recorders = {name: TraceRecorder(profile=True) for name in reduce_tasks}
        RendezvousReducer.barrier = threading.Barrier(len(reduce_tasks))
        errors = []

        def run(name):
            try:
                run_job(
                    fs,
                    word_count_conf(
                        fs,
                        name=name,
                        reducer=RendezvousReducer(),
                        output=f"out-{name}",
                        num_reduce_tasks=reduce_tasks[name],
                    ),
                    executor="serial",
                    observer=recorders[name],
                    faults=False,
                )
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(name,)) for name in reduce_tasks
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for recorder in recorders.values():
            recorder.close()

        for name, expected in reduce_tasks.items():
            registry = recorders[name].metrics
            attempts = dict(registry.get("repro_fs_attempts_total").samples())
            assert attempts == {("promoted",): expected, ("staged",): expected}
            assert sorted(fs.read_dir(f"out-{name}")) == sorted(
                fs.read_dir("out-first")
            )
