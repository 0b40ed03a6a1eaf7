"""Shared-memory reduce-task transport: pack/unpack round-trips and
segment ownership."""

from __future__ import annotations

import numpy as np

from tests.conftest import assert_matches_reference, make_dataset

from repro import execute
from repro.columnar.batch import ColumnValues
from repro.columnar.shm import pack_reduce_task, unpack_reduce_task
from repro.core.query import IntervalJoinQuery
from repro.mapreduce import runner
from repro.obs.recorder import TraceRecorder


def _group(key, gids, starts, ends, tag_codes, tags):
    return ColumnValues(
        key=key,
        gids=np.asarray(gids, dtype=np.int64),
        starts=np.asarray(starts, dtype=np.float64),
        ends=np.asarray(ends, dtype=np.float64),
        tag_codes=np.asarray(tag_codes, dtype=np.int16),
        tags=tags,
        store=None,
        layouts=tuple((f"{tag}.I",) for tag in tags),
    )


def _sample_groups():
    tags = ("left", "right")
    return [
        (7, _group(7, [3, 1], [1.5, 2.5], [2.0, 3.0], [0, 1], tags)),
        ((0, 1), _group((0, 1), [9], [4.0], [5.0], [0], tags)),
    ]


class TestRoundtrip:
    def test_groups_survive_pack_unpack(self):
        groups = _sample_groups()
        task, shm = pack_reduce_task(groups)
        assert shm is not None
        try:
            restored, attached = unpack_reduce_task(task)
            assert attached is not None
            try:
                assert [key for key, _ in restored] == [
                    key for key, _ in groups
                ]
                for (_, out), (_, src) in zip(restored, groups):
                    assert out.gids.tolist() == src.gids.tolist()
                    assert out.starts.tolist() == src.starts.tolist()
                    assert out.ends.tolist() == src.ends.tolist()
                    assert out.tag_codes.tolist() == src.tag_codes.tolist()
                    assert out.tags == src.tags
                    assert out.layouts == src.layouts
                # Views alias the segment; drop them before close().
                del restored, out, src
            finally:
                attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_task_metadata(self):
        groups = _sample_groups()
        task, shm = pack_reduce_task(groups)
        try:
            assert task.total_rows == 3
            assert task.keys == [7, (0, 1)]
            assert task.lengths == [2, 1]
            assert task.nbytes == 3 * 26
        finally:
            shm.close()
            shm.unlink()

    def test_empty_task_needs_no_segment(self):
        task, shm = pack_reduce_task([])
        assert shm is None
        restored, attached = unpack_reduce_task(task)
        assert restored == []
        assert attached is None
        assert task.nbytes == 0


def test_a_pooled_reduce_task_sends_back_one_int64_block(monkeypatch):
    """Under ``processes`` a columnar reduce task's outputs cross the
    process boundary as one int64 array — its gid block, not boxed
    ints — and the parent formats each task's block once, into as many
    records as the block has rows and the worker counted."""
    received = []
    real_received = runner._ShmReduceTasks.received

    def spy(self, result):
        records = real_received(self, result)
        received.append((self.run.conf.name, result, len(records)))
        return records

    monkeypatch.setattr(runner._ShmReduceTasks, "received", spy)
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2"), ("R2", "before", "R3")])
    data = make_dataset(query.relations, 30, seed=5)
    recorder = TraceRecorder()
    result = execute(
        query, data, algorithm="pasm", num_partitions=4,
        executor="processes", workers=2, faults=False, observer=recorder,
    )
    assert_matches_reference(query, data, result)
    assert len(result) > 0
    jobs = {job.name: job for job in recorder.job_results}
    assert {name for name, _, _ in received} == {"pasm-flag", "pasm-mark", "pasm-join"}
    for name, job in jobs.items():
        blocks = [(block, formatted) for job_name, block, formatted in received if job_name == name]
        assert len(blocks) == len(job.reduce_task_outputs)  # once per task
        for block, formatted in blocks:
            assert type(block) is np.ndarray and block.dtype == np.int64
            assert len(block) == formatted
        # (in the order the tasks finished)
        assert sorted(formatted for _, formatted in blocks) == sorted(job.reduce_task_outputs)
        assert job.counters.value("framework", "reduce_output_records") == sum(
            job.reduce_task_outputs
        )
