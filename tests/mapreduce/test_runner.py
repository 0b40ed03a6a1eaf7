"""Unit tests for job execution (the helper job of ``tests/conftest.py``:
output, counter semantics, loads, and executor/worker resolution)."""

import pytest

from repro.errors import MapReduceError
from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.job import InputSpec
from repro.mapreduce.options import (
    EXECUTOR_ENV,
    EXECUTORS,
    WORKERS_ENV,
    resolve_executor,
    resolve_workers,
)
from repro.mapreduce.runner import run_job
from repro.obs import TraceRecorder

from tests.conftest import (
    HELPER,
    KeyRidReducer,
    helper_conf,
    helper_mapper,
    helper_pairs,
    write_helper_input,
)


@pytest.fixture
def fs():
    fs = InMemoryFileSystem()
    write_helper_input(fs)
    return fs


class TestWordCount:
    def test_output(self, fs):
        run_job(fs, helper_conf())
        assert sorted(fs.read_dir("out")) == sorted(helper_pairs())

    def test_framework_counters(self, fs):
        result = run_job(fs, helper_conf())
        pairs = helper_pairs()
        c = result.counters
        assert c.value("framework", "map_input_records") == len(HELPER) == 12
        assert c.value("framework", "map_output_records") == len(pairs) == 18
        assert c.value("framework", "shuffle_records") == len(pairs)
        assert c.value("framework", "reduce_input_groups") == 4
        assert result.output_records == len(pairs)

    def test_logical_reducer_loads(self, fs):
        result = run_job(fs, helper_conf())
        loads = {}
        for key, _ in helper_pairs():
            loads[key] = loads.get(key, 0) + 1
        assert result.logical_reducer_loads == loads
        assert sum(result.logical_reducer_loads.values()) == 18

    def test_reduce_task_loads_cover_everything(self, fs):
        result = run_job(fs, helper_conf())
        assert sum(result.reduce_task_loads) == 18
        assert len(result.reduce_task_loads) == 3

    def test_threads_executor_same_output(self, fs):
        run_job(fs, helper_conf(output="out-serial"))
        run_job(fs, helper_conf(output="out-threads"), executor="threads")
        assert sorted(fs.read_dir("out-serial")) == sorted(
            fs.read_dir("out-threads")
        )

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_parallel_executor_bit_identical(self, fs, executor):
        serial = run_job(fs, helper_conf(output="out-serial"))
        parallel = run_job(
            fs,
            helper_conf(output=f"out-{executor}"),
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
            run_job(fs, helper_conf(), executor="gpu")

    def test_no_inputs_rejected(self, fs):
        conf = helper_conf()
        conf.inputs = []
        with pytest.raises(MapReduceError):
            run_job(fs, conf)

    def test_zero_reduce_tasks_rejected(self, fs):
        conf = helper_conf(num_reduce_tasks=0)
        with pytest.raises(MapReduceError):
            run_job(fs, conf)


def _two_inputs(fs):
    """The helper relation split over two inputs, each with its mapper."""
    fs.write("in/a", HELPER.rows[:6])
    fs.write("in/b", HELPER.rows[6:])
    return helper_conf(
        inputs=[InputSpec("in/a", helper_mapper()), InputSpec("in/b", helper_mapper())],
        num_reduce_tasks=2,
    )


class TestLifecycle:
    def test_multiple_inputs_under_processes(self):
        fs = InMemoryFileSystem()
        run_job(fs, _two_inputs(fs), executor="processes", workers=2)
        assert sorted(fs.read_dir("out")) == sorted(helper_pairs())

    def test_multiple_inputs_each_get_own_mapper_run(self):
        fs = InMemoryFileSystem()
        recorder = TraceRecorder()
        run_job(fs, _two_inputs(fs), observer=recorder)
        assert sorted(fs.read_dir("out")) == sorted(helper_pairs())
        maps = recorder.find(kind="task", name="map:in/a") + recorder.find(
            kind="task", name="map:in/b"
        )
        assert [s.counters["framework"]["map_input_records"] for s in maps] == [6, 6]


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
        write_helper_input(fs)
        conf = helper_conf()
        with pytest.raises(MapReduceError):
            run_job(fs, conf, executor="threads", workers=0)


class RendezvousReducer(KeyRidReducer):
    """Holds the first key group of its job until every concurrent job
    has reached its reduce phase, so no job commits before all of them
    have started."""

    barrier = None  # set per test; class-level so deep copies share it

    def __init__(self):
        self.waited = False

    def kernel(self, key, group, counters):
        if not self.waited:
            self.waited = True
            type(self).barrier.wait(timeout=30)
        return super().kernel(key, group, counters)


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
        write_helper_input(fs)
        reduce_tasks = {"first": 3, "second": 5}
        recorders = {name: TraceRecorder(profile=True) for name in reduce_tasks}
        RendezvousReducer.barrier = threading.Barrier(len(reduce_tasks))
        errors = []

        def run(name):
            try:
                run_job(
                    fs,
                    helper_conf(
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
