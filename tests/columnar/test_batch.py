"""Struct-of-arrays batch primitives against their per-record loops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar.batch import (
    ColumnarPairs,
    ColumnValues,
    MapBlock,
    operator_map_columns,
    ranged_targets,
)
from repro.columnar.codec import KEY_CODECS
from repro.errors import MapReduceError
from repro.intervals.allen import MapOperator
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import SortedColumns


def interval_columns(intervals):
    """The ``(starts, ends)`` columns every input is encoded into."""
    columns = SortedColumns.of_intervals(intervals)
    return columns.starts, columns.ends


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

    def test_a_tag_keeps_one_layout(self):
        """A tag's layout — its routing term, then its further terms —
        holds for every input that shuffles the tag; another is refused."""
        batch = ColumnarPairs(KEY_CODECS["int"])
        one, point = np.asarray([0], dtype=np.int64), np.asarray([1.0])

        def append(route, segment):
            block = MapBlock(one, np.asarray([0]), [0], ("left",), routes=[route])
            batch.append_block(block, segment, point, point)

        append("L.I", 0)
        append("L.I", 1)
        assert batch.layouts == (("L.I",),)
        with pytest.raises(MapReduceError, match="two layouts"):
            append("L.J", 2)

    def test_logical_loads(self):
        batch = ColumnarPairs(KEY_CODECS["int"])
        codes = np.asarray([2, 2, 5], dtype=np.int64)
        points = np.asarray([1.0, 2.0, 3.0])
        batch.append_block(
            MapBlock.single_tag(codes, np.arange(3), "r"), 0, points, points
        )
        assert batch.logical_loads() == {2: 2, 5: 1}

    @pytest.mark.parametrize("kind", sorted(KEY_CODECS))
    @pytest.mark.parametrize("seed", range(4))
    def test_loads_are_read_off_the_one_key_sort(self, kind, seed):
        """The loads :meth:`ColumnarPairs.key_groups` leaves behind are
        the ``np.unique`` count of the key codes — the same dict, in the
        same key order — over several map blocks, with and without a
        radix-sortable code range; reading them sorts nothing again."""
        codec = KEY_CODECS[kind]
        rng = np.random.default_rng(seed)
        if kind == "int":
            spread = [3, 40, 70000, 1 << 40][seed]
            encode = lambda n: rng.integers(0, spread, size=n)
        else:
            # Odd seeds mix dimensionalities: no radix-sortable range.
            cells = [(i, j) for i in range(4) for j in range(5 + seed)]
            cells += [(i,) for i in range(3)] if seed % 2 else []
            encode = lambda n: [
                codec.encode_cell(cells[c]) for c in rng.integers(0, len(cells), size=n)
            ]
        batch = ColumnarPairs(codec)
        for segment, n in enumerate([0, 17, 300, 5]):
            codes = np.asarray(encode(n), dtype=np.int64)
            points = rng.uniform(0.0, 10.0, size=n)
            batch.append_block(
                MapBlock.single_tag(codes, np.arange(n), "r"), segment, points, points
            )
        key_codes = batch.columns()[0]
        codes, counts = np.unique(key_codes, return_counts=True)
        want = {codec.decode(int(c)): int(n) for c, n in zip(codes, counts)}
        order, boundaries, keys = batch.key_groups()
        assert list(batch.logical_loads().items()) == list(want.items())
        assert keys == list(want)
        sorted_codes = key_codes[order]
        assert (np.diff(sorted_codes) >= 0).all()
        for i in range(len(keys)):
            assert (sorted_codes[boundaries[i]:boundaries[i + 1]] == codes[i]).all()
            # Emission order is kept within a key.
            assert (np.diff(order[boundaries[i]:boundaries[i + 1]]) > 0).all()

    def test_empty_pairs_have_no_loads(self):
        batch = ColumnarPairs(KEY_CODECS["int"])
        order, boundaries, keys = batch.key_groups()
        assert (len(order), boundaries.tolist(), keys) == (0, [0], [])
        assert batch.logical_loads() == {}


class TestColumnValues:
    def _group(self):
        return ColumnValues(
            key=1,
            gids=np.asarray([0, 1, 2], dtype=np.int64),
            starts=np.asarray([1.0, 5.0, 3.0]),
            ends=np.asarray([2.0, 6.0, 4.0]),
            tag_codes=np.asarray([0, 1, 0], dtype=np.int16),
            tags=("left", "right"),
            store=None,
        )

    def test_tag_mask(self):
        group = self._group()
        assert group.tag_mask("left").tolist() == [True, False, True]
        assert group.tag_mask("missing").tolist() == [False] * 3

    def test_tag_groups_follow_first_appearance(self):
        """The order the values show their tags in — not the job's
        tag-table order — and absent tags are skipped."""
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


class TestIntervalColumns:
    """Interval columns are float64 only when they *are*
    the intervals — every endpoint survives the conversion — and
    ``object`` columns of the exact values otherwise."""

    def test_ints_and_floats_within_float64_encode(self):
        intervals = [Interval(5, 9), Interval(0.5, 2**53), Interval(-3, 7.25)]
        starts, ends = interval_columns(intervals)
        assert starts.dtype == ends.dtype == np.float64
        assert starts.tolist() == [5.0, 0.5, -3.0]
        assert ends.tolist() == [9.0, float(2**53), 7.25]

    def test_empty_input_encodes(self):
        starts, ends = interval_columns([])
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
        starts, ends = interval_columns([Interval(1, 2), interval])
        assert object in (starts.dtype, ends.dtype)
        assert starts.tolist() == [1, interval.start]
        assert ends.tolist() == [2, interval.end]
