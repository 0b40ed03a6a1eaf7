"""Unit tests for the span recorder and its sinks."""

from __future__ import annotations

import io
import json
import threading

from repro.mapreduce import Counters, InMemoryFileSystem, run_job
from repro.mapreduce.cost import CostModel
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.task import Mapper, Reducer
from repro.obs import InMemorySink, JsonlSink, TraceRecorder, TraceSink


class TestSpanNesting:
    def test_context_manager_builds_tree(self):
        rec = TraceRecorder()
        with rec.span("outer", kind="query") as outer:
            with rec.span("inner-a", kind="phase"):
                pass
            with rec.span("inner-b", kind="phase"):
                pass
        assert [s.name for s in rec.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert all(c.parent_id == outer.span_id for c in outer.children)
        # closed depth-first: children before the parent.
        assert [s.name for s in rec.spans] == ["inner-a", "inner-b", "outer"]
        assert outer.end is not None and outer.duration >= 0.0

    def test_span_ids_unique_and_parent_links(self):
        rec = TraceRecorder()
        with rec.span("a"):
            with rec.span("b"):
                with rec.span("c"):
                    pass
        ids = [s.span_id for s in rec.spans]
        assert len(ids) == len(set(ids))
        by_name = {s.name: s for s in rec.spans}
        assert by_name["c"].parent_id == by_name["b"].span_id
        assert by_name["b"].parent_id == by_name["a"].span_id
        assert by_name["a"].parent_id is None

    def test_explicit_parent_across_threads(self):
        rec = TraceRecorder()
        with rec.span("phase", kind="phase") as phase:

            def work(index: int) -> None:
                with rec.span(f"task-{index}", kind="task", parent=phase):
                    pass

            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(phase.children) == 8
        assert {c.parent_id for c in phase.children} == {phase.span_id}
        # worker spans carry their worker thread id, not the opener's.
        assert any(c.thread_id != phase.thread_id for c in phase.children)

    def test_annotate_and_find(self):
        rec = TraceRecorder()
        with rec.span("j", kind="job", job="j") as span:
            span.annotate(records=7)
        assert rec.find(kind="job")[0].attributes["records"] == 7
        assert rec.find(name="nope") == []

    def test_recorder_as_context_manager_closes_sinks(self):
        """A sink sees every span open, then close, then the recorder
        close — the whole subscriber protocol."""
        events = []

        class Sink(TraceSink):
            def opened(self, span):
                events.append(("opened", span.name, span.end))

            def emit(self, span):
                events.append(("emit", span.name, span.end is not None))

            def close(self):
                events.append("closed")

        with TraceRecorder(Sink()) as rec:
            with rec.span("x"):
                pass
        assert events == [("opened", "x", None), ("emit", "x", True), "closed"]


class TestCounterSnapshots:
    def test_snapshot_is_detached(self):
        counters = Counters()
        counters.increment("g", "n", 3)
        snap = counters.snapshot()
        counters.increment("g", "n", 2)
        assert snap == {"g": {"n": 3}}

    def test_delta_reports_gains_only(self):
        counters = Counters()
        counters.increment("g", "a", 3)
        snap = counters.snapshot()
        counters.increment("g", "a", 4)
        counters.increment("h", "b")
        assert counters.delta(snap) == {"g": {"a": 4}, "h": {"b": 1}}

    def test_delta_empty_when_unchanged(self):
        counters = Counters()
        counters.increment("g", "a")
        assert counters.delta(counters.snapshot()) == {}


class _SplitMapper(Mapper):
    def map(self, record, context):
        context.emit(record % 2, record)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.counters.increment("work", "comparisons", len(values))
        context.emit((key, sum(values)))


def _job(fs) -> JobConf:
    fs.write("in/r", list(range(10)), overwrite=True)
    return JobConf(
        name="sum",
        inputs=[InputSpec("in/r", _SplitMapper())],
        reducer=_SumReducer(),
        output="out",
        num_reduce_tasks=2,
    )


class TestRunJobTracing:
    def test_span_hierarchy_and_counter_deltas(self):
        fs = InMemoryFileSystem()
        rec = TraceRecorder()
        result = run_job(fs, _job(fs), observer=rec, cost_model=CostModel())
        (job_span,) = rec.find(kind="job")
        phases = [c.name for c in job_span.children]
        assert phases == ["map", "shuffle", "reduce"]
        map_tasks = rec.find(kind="task", name="map:in/r")
        assert len(map_tasks) == 1
        assert (
            map_tasks[0].counters["framework"]["map_input_records"] == 10
        )
        reduce_tasks = [
            s for s in rec.find(kind="task") if s.attributes["phase"] == "reduce"
        ]
        assert len(reduce_tasks) == 2
        assert (
            sum(
                s.counters["framework"]["reduce_input_records"]
                for s in reduce_tasks
            )
            == 10
        )
        # job span carries the merged counters and a cost charge.
        assert job_span.counters == result.counters.snapshot()
        assert job_span.attributes["modelled_seconds"] > 0
        assert rec.job_results == [result]

    def test_threads_executor_records_every_task(self):
        fs = InMemoryFileSystem()
        rec = TraceRecorder()
        run_job(fs, _job(fs), executor="threads", observer=rec)
        reduce_tasks = [
            s for s in rec.find(kind="task") if s.attributes["phase"] == "reduce"
        ]
        assert sorted(s.attributes["task_index"] for s in reduce_tasks) == [0, 1]
        (reduce_phase,) = rec.find(kind="phase", name="reduce")
        assert {s.parent_id for s in reduce_tasks} == {reduce_phase.span_id}

    def test_unobserved_run_identical(self):
        fs_a, fs_b = InMemoryFileSystem(), InMemoryFileSystem()
        plain = run_job(fs_a, _job(fs_a))
        traced = run_job(fs_b, _job(fs_b), observer=TraceRecorder())
        assert plain.counters.as_dict() == traced.counters.as_dict()
        assert plain.reduce_task_loads == traced.reduce_task_loads
        assert sorted(map(repr, fs_a.read_dir("out"))) == sorted(
            map(repr, fs_b.read_dir("out"))
        )


class TestSinks:
    def _record(self, *sinks) -> TraceRecorder:
        rec = TraceRecorder(*sinks)
        with rec.span("q", kind="query"):
            with rec.span("j", kind="job", job="j") as span:
                span.counters = {"framework": {"map_input_records": 2}}
        rec.close()
        return rec

    def test_in_memory_sink(self):
        sink = InMemorySink()
        self._record(sink)
        assert [s.name for s in sink.spans] == ["j", "q"]
        assert [s.name for s in sink.roots] == ["q"]

    def test_jsonl_sink_emits_one_object_per_span(self):
        buffer = io.StringIO()
        self._record(JsonlSink(buffer))
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [entry["name"] for entry in lines] == ["j", "q"]
        assert lines[0]["counters"] == {"framework": {"map_input_records": 2}}
        assert lines[0]["parent"] == lines[1]["id"]

    def test_jsonl_sink_to_path(self, tmp_path):
        path = tmp_path / "sub" / "trace.jsonl"
        self._record(JsonlSink(str(path)))
        assert len(path.read_text().splitlines()) == 2
