"""Struct-of-arrays batch primitives against their records-plane loops."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.columnar.batch import (
    ColumnarPairs,
    ColumnValues,
    MapBlock,
    PayloadStore,
    interval_columns,
    job_columnar_gate,
    operator_map_columns,
    ranged_targets,
)
from repro.columnar.codec import KEY_CODECS
from repro.intervals.allen import MapOperator
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning


def random_intervals(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, span, size=n)
    ends = starts + rng.uniform(0.5, span / 4, size=n)
    return starts, ends


class TestRangedTargets:
    def test_matches_per_record_loops(self):
        lo = np.asarray([0, 2, 1], dtype=np.int64)
        hi = np.asarray([2, 2, 3], dtype=np.int64)
        keys, row_idx = ranged_targets(lo, hi)
        expected = [
            (key, row)
            for row, (a, b) in enumerate(zip(lo, hi))
            for key in range(a, b + 1)
        ]
        assert list(zip(keys.tolist(), row_idx.tolist())) == expected

    def test_empty(self):
        keys, row_idx = ranged_targets(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert len(keys) == 0 and len(row_idx) == 0


class TestOperatorMapColumns:
    partitioning = Partitioning.uniform(0.0, 100.0, 7)

    def _records_plane(self, operator, starts, ends):
        emitted = []
        for row, (start, end) in enumerate(zip(starts, ends)):
            interval = Interval(float(start), float(end))
            if operator is MapOperator.PROJECT:
                targets = [self.partitioning.project(interval)]
            elif operator is MapOperator.SPLIT:
                targets = list(self.partitioning.split(interval))
            else:
                targets = list(self.partitioning.replicate(interval))
            emitted.extend((target, row) for target in targets)
        return emitted

    @pytest.mark.parametrize(
        "operator",
        [MapOperator.PROJECT, MapOperator.SPLIT, MapOperator.REPLICATE],
    )
    def test_matches_records_plane(self, operator):
        starts, ends = random_intervals(50, seed=3)
        keys, row_idx, counters = operator_map_columns(
            self.partitioning, operator, starts, ends
        )
        assert (
            list(zip(keys.tolist(), row_idx.tolist()))
            == self._records_plane(operator, starts, ends)
        )
        if operator is MapOperator.REPLICATE:
            assert counters[("join", "replicated_intervals")] == 50
            assert counters[("join", "replicated_pairs")] == len(keys)
        else:
            assert counters == {}

    def test_no_counters_on_empty_input(self):
        empty = np.empty(0, dtype=np.float64)
        _, _, counters = operator_map_columns(
            self.partitioning, MapOperator.REPLICATE, empty, empty
        )
        assert counters == {}

    def test_locate_array_matches_locate(self):
        points = np.asarray([-5.0, 0.0, 13.0, 50.0, 99.9, 100.0, 400.0])
        located = self.partitioning.locate_array(points)
        assert located.tolist() == [
            self.partitioning.locate(float(p)) for p in points
        ]

    def test_locate_array_is_exact_for_boundaries_beyond_float64(self):
        """Boundaries that are not float64 values (float64 rounds
        2**53 + 1 down and 2**53 + 3 up) still route every float64 point
        as the exact Python comparison of ``locate`` does."""
        base = 2**53
        partitioning = Partitioning((0, base + 1, base + 3, base + 7, 2**54))
        points = np.asarray(
            [float(base + step) for step in range(-4, 12, 2)], dtype=np.float64
        )
        assert partitioning.locate_array(points).tolist() == [
            partitioning.locate(point) for point in points.tolist()
        ]


class TestColumnarPairs:
    def test_append_and_columns(self):
        batch = ColumnarPairs(KEY_CODECS["int"])
        starts = np.asarray([1.0, 2.0, 3.0])
        ends = starts + 1.0
        block = MapBlock.single_tag(
            np.asarray([4, 0, 4], dtype=np.int64),
            np.asarray([0, 1, 2], dtype=np.int64),
            "left",
        )
        batch.append_block(block, segment=3, starts=starts, ends=ends)
        key_codes, gids, out_starts, out_ends, tag_codes = batch.columns()
        assert key_codes.tolist() == [4, 0, 4]
        assert gids.tolist() == [(3 << 32) | r for r in (0, 1, 2)]
        assert out_starts.tolist() == [1.0, 2.0, 3.0]
        assert out_ends.tolist() == [2.0, 3.0, 4.0]
        assert tag_codes.tolist() == [0, 0, 0]
        assert batch.tags == ("left",)
        assert len(batch) == 3

    def test_row_idx_gathers_endpoints(self):
        batch = ColumnarPairs(KEY_CODECS["int"])
        starts = np.asarray([10.0, 20.0])
        ends = np.asarray([11.0, 21.0])
        # Record 1 fans out to two partitions; its endpoints repeat.
        block = MapBlock.single_tag(
            np.asarray([0, 1, 2], dtype=np.int64),
            np.asarray([0, 1, 1], dtype=np.int64),
            "r",
        )
        batch.append_block(block, segment=0, starts=starts, ends=ends)
        _, _, out_starts, out_ends, _ = batch.columns()
        assert out_starts.tolist() == [10.0, 20.0, 20.0]
        assert out_ends.tolist() == [11.0, 21.0, 21.0]

    def test_tag_interning_across_blocks(self):
        batch = ColumnarPairs(KEY_CODECS["int"])
        one = np.asarray([0], dtype=np.int64)
        point = np.asarray([1.0])
        batch.append_block(
            MapBlock.single_tag(one, np.asarray([0]), "left"), 0, point, point
        )
        batch.append_block(
            MapBlock.single_tag(one, np.asarray([0]), "right"), 1, point, point
        )
        batch.append_block(
            MapBlock.single_tag(one, np.asarray([0]), "left"), 2, point, point
        )
        assert batch.tags == ("left", "right")
        tag_codes = batch.columns()[4]
        assert tag_codes.tolist() == [0, 1, 0]

    def test_logical_loads(self):
        batch = ColumnarPairs(KEY_CODECS["int"])
        codes = np.asarray([2, 2, 5], dtype=np.int64)
        points = np.asarray([1.0, 2.0, 3.0])
        batch.append_block(
            MapBlock.single_tag(codes, np.arange(3), "r"), 0, points, points
        )
        assert batch.logical_loads() == {2: 2, 5: 1}


class TestColumnValues:
    def _group(self, store=None):
        return ColumnValues(
            key=1,
            gids=np.asarray([0, 1, 2], dtype=np.int64),
            starts=np.asarray([1.0, 5.0, 3.0]),
            ends=np.asarray([2.0, 6.0, 4.0]),
            tag_codes=np.asarray([0, 1, 0], dtype=np.int16),
            tags=("left", "right"),
            store=store,
        )

    def test_tag_mask(self):
        group = self._group()
        assert group.tag_mask("left").tolist() == [True, False, True]
        assert group.tag_mask("missing").tolist() == [False] * 3

    def test_tag_groups_follow_first_appearance(self):
        """The order a records reducer's group-by-tag dict iterates in —
        not the job's tag-table order — and absent tags are skipped."""
        group = ColumnValues(
            key=1,
            gids=np.arange(5, dtype=np.int64),
            starts=np.zeros(5),
            ends=np.ones(5),
            tag_codes=np.asarray([2, 0, 2, 2, 0], dtype=np.int16),
            tags=("a", "unused", "c"),
            store=None,
        )
        assert [(tag, rows.tolist()) for tag, rows in group.tag_groups()] == [
            ("c", [0, 2, 3]), ("a", [1, 4]),
        ]
        assert self._group().tag_groups()[0][0] == "left"

    def test_iteration_resolves_through_store(self):
        store = PayloadStore()
        records = ["a", "b", "c"]
        mapper = SimpleNamespace(value_of=lambda record: ("tag", record))
        store.add_segment(0, records, mapper)
        group = self._group(store)
        assert list(group) == [("tag", "a"), ("tag", "b"), ("tag", "c")]
        assert store.record(1) == "b"

    def test_pickle_safety_net_materialises(self):
        import pickle

        store = PayloadStore()
        store.add_segment(
            0, ["x", "y", "z"], SimpleNamespace(value_of=lambda r: r)
        )
        restored = pickle.loads(pickle.dumps(self._group(store)))
        assert restored == ["x", "y", "z"]


class TestJobColumnarKind:
    def _mapper(self, kind="int", ready=True):
        return SimpleNamespace(
            columnar_key_kind=kind,
            columnar_ready=lambda: ready,
            map_columns=lambda *a: None,
        )

    def _reducer(self, ready=True):
        return SimpleNamespace(
            columnar_ready=lambda: ready,
            columnar_outputs=lambda *a: iter(()),
        )

    def _conf(self, mappers, reducer, combiner=None):
        return SimpleNamespace(
            inputs=[SimpleNamespace(mapper=m) for m in mappers],
            reducer=reducer,
            combiner=combiner,
        )

    def test_all_ready_same_kind(self):
        conf = self._conf(
            [self._mapper(), self._mapper()], self._reducer()
        )
        assert job_columnar_gate(conf) == ("int", None)

    def test_mixed_kinds_fall_back(self):
        conf = self._conf(
            [self._mapper("int"), self._mapper("cell")], self._reducer()
        )
        assert job_columnar_gate(conf) == (None, "mixed-key-kinds")

    def test_unready_mapper_falls_back(self):
        conf = self._conf(
            [self._mapper(), self._mapper(ready=False)], self._reducer()
        )
        assert job_columnar_gate(conf) == (None, "mapper-not-columnar-ready")

    def test_unready_reducer_falls_back(self):
        conf = self._conf([self._mapper()], self._reducer(ready=False))
        assert job_columnar_gate(conf) == (None, "reducer-not-columnar-ready")

    def test_protocol_free_classes_fall_back(self):
        conf = self._conf([SimpleNamespace()], self._reducer())
        assert job_columnar_gate(conf) == (None, "mapper-no-columnar-protocol")
        conf = self._conf([self._mapper()], SimpleNamespace())
        assert job_columnar_gate(conf) == (None, "reducer-no-columnar-protocol")

    def test_combiner_keeps_the_job_on_records(self):
        conf = self._conf(
            [self._mapper()], self._reducer(), combiner=self._reducer()
        )
        assert job_columnar_gate(conf) == (None, "combiner-configured")


class TestIntervalColumns:
    """``interval_columns`` returns the float64 columns only when they
    *are* the intervals: every endpoint must survive the conversion."""

    def test_ints_and_floats_within_float64_encode(self):
        intervals = [Interval(5, 9), Interval(0.5, 2**53), Interval(-3, 7.25)]
        starts, ends = interval_columns(intervals, lambda iv: iv)
        assert starts.dtype == ends.dtype == np.float64
        assert starts.tolist() == [5.0, 0.5, -3.0]
        assert ends.tolist() == [9.0, float(2**53), 7.25]

    def test_empty_input_encodes(self):
        starts, ends = interval_columns([], lambda iv: iv)
        assert len(starts) == len(ends) == 0

    @pytest.mark.parametrize(
        "interval",
        [
            Interval(2**53 + 1, 2**53 + 3),
            Interval(5, 2**53 + 1),
            Interval(-(2**53) - 1, 0),
        ],
    )
    def test_endpoint_beyond_float64_is_reported(self, interval):
        assert interval_columns(
            [Interval(1, 2), interval], lambda iv: iv
        ) is None
