"""Unit tests for multi-job pipelines."""

import pytest

from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.job import InputSpec
from repro.mapreduce.pipeline import Pipeline

from tests.conftest import (
    HELPER,
    KeyRidReducer,
    helper_conf,
    helper_mapper,
    helper_pairs,
    write_helper_input,
)


class RowsReducer(KeyRidReducer):
    """The helper reducer, outputting each shuffled value's row itself —
    what a second job's ``RowView`` reads back."""

    def format(self, block, store):
        return list(store.take(block[:, 0])) if len(block) else []


def _stage(name, source, output, reducer, num_reduce_tasks=1):
    return helper_conf(
        name=name,
        inputs=[InputSpec(source, helper_mapper())],
        reducer=reducer,
        output=output,
        num_reduce_tasks=num_reduce_tasks,
    )


@pytest.fixture
def fs():
    fs = InMemoryFileSystem()
    write_helper_input(fs)
    return fs


class TestPipeline:
    def test_two_stage_chain(self, fs):
        pipeline = Pipeline(fs)
        pipeline.run(_stage("stage1", "in/R", "stage1", RowsReducer(), 2))
        pipeline.run(_stage("stage2", "stage1", "stage2", KeyRidReducer()))
        result = pipeline.result
        assert result.num_cycles == 2
        assert result.final_output == "stage2"
        # Stage 1 writes each row once per partition it meets; stage 2
        # splits every one of those again.
        stage1 = list(fs.read_dir("stage1"))
        assert len(stage1) == len(helper_pairs())
        assert sorted(fs.read_dir("stage2")) == sorted(helper_pairs(stage1))

    def test_counters_accumulate_across_jobs(self, fs):
        pipeline = Pipeline(fs)
        pipeline.run(_stage("s1", "in/R", "s1", RowsReducer()))
        pipeline.run(_stage("s2", "s1", "s2", KeyRidReducer()))
        first = len(helper_pairs())
        second = len(helper_pairs(list(fs.read_dir("s1"))))
        assert pipeline.result.total_map_output_records == first + second
        assert (
            pipeline.result.counters.value("framework", "map_input_records")
            == len(HELPER) + first
        )

    def test_run_all(self, fs):
        pipeline = Pipeline(fs)
        result = pipeline.run_all([_stage("only", "in/R", "only", KeyRidReducer())])
        assert result.num_cycles == 1

    def test_empty_pipeline(self, fs):
        pipeline = Pipeline(fs)
        assert pipeline.result.num_cycles == 0
        assert pipeline.result.final_output is None
