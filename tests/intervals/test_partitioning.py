"""Unit tests for partitionings and the Section-3 primitives.

Includes the paper's Figure 2 worked example.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidPartitioningError
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning


class TestConstruction:
    def test_uniform(self):
        parts = Partitioning.uniform(0, 100, 4)
        assert len(parts) == 4
        assert parts.boundaries == (0, 25, 50, 75, 100)

    def test_uniform_single_partition(self):
        parts = Partitioning.uniform(0, 10, 1)
        assert len(parts) == 1

    def test_uniform_invalid(self):
        with pytest.raises(InvalidPartitioningError):
            Partitioning.uniform(0, 100, 0)
        with pytest.raises(InvalidPartitioningError):
            Partitioning.uniform(5, 5, 3)

    def test_explicit_boundaries_must_increase(self):
        with pytest.raises(InvalidPartitioningError):
            Partitioning((0, 10, 10, 20))
        with pytest.raises(InvalidPartitioningError):
            Partitioning((0,))

    def test_equi_depth_balances_skew(self):
        # 90% of starts in [0, 10), 10% in [10, 100).
        starts = [i * 0.01 for i in range(900)] + [10 + i for i in range(100)]
        parts = Partitioning.equi_depth(starts, 4)
        counts = [0] * len(parts)
        for s in starts:
            counts[parts.locate(s)] += 1
        assert max(counts) <= 2 * (len(starts) / len(parts))

    def test_equi_depth_collapses_ties(self):
        parts = Partitioning.equi_depth([5.0] * 100, 4)
        assert len(parts) >= 1
        assert parts.locate(5.0) == 0

    def test_equi_depth_empty_raises(self):
        with pytest.raises(InvalidPartitioningError):
            Partitioning.equi_depth([], 4)


class TestLocate:
    def test_interior_points(self):
        parts = Partitioning.uniform(0, 100, 4)
        assert parts.locate(0) == 0
        assert parts.locate(24.999) == 0
        assert parts.locate(25) == 1
        assert parts.locate(99.999) == 3

    def test_clamping(self):
        parts = Partitioning.uniform(0, 100, 4)
        assert parts.locate(-5) == 0
        assert parts.locate(100) == 3
        assert parts.locate(1000) == 3


class TestLocateArray:
    def test_object_points_locate_exactly(self):
        """Boundaries and points that are not float64 values: an
        ``object`` column compares the Python numbers themselves."""
        base = 2**53
        parts = Partitioning((0, base + 1, base + 3, base + 7, 2**54))
        points = [-1, 0, 0.5, base, base + 1, base + 2, float(base + 2),
                  base + 3, base + 6, base + 7, 2**54, 2**60]
        located = parts.locate_array(np.array(points, dtype=object))
        assert located.dtype == np.int64
        assert located.tolist() == [parts.locate(p) for p in points]

    @settings(max_examples=200, deadline=None)
    @given(
        inner=st.sets(st.integers(1, 19), max_size=6),
        points=st.lists(
            st.one_of(st.integers(-3, 23), st.floats(-3.0, 23.0)), max_size=30
        ),
        big=st.booleans(),
    )
    def test_locate_array_is_locate(self, inner, points, big):
        """Every point — on a boundary, inside, left of the range, at or
        past its end, one partition or several — float64 or ``object``."""
        shift = 2**53 if big else 0
        parts = Partitioning(tuple(shift + b for b in [0, *sorted(inner), 20]))
        want = [parts.locate(shift + p) for p in points]
        objects = np.array([shift + p for p in points], dtype=object)
        assert parts.locate_array(objects).tolist() == want
        floats = np.array([float(shift + p) for p in points], dtype=np.float64)
        located = parts.locate_array(floats)
        assert located.dtype == np.int64
        assert located.tolist() == [parts.locate(p) for p in floats.tolist()]

    def test_boundary_arrays_are_built_once_and_not_pickled(self):
        parts = Partitioning.uniform(0, 100, 4)
        parts.locate_array(np.array([1.0]))
        parts.locate_array(np.array([1], dtype=object))
        assert parts._float_bounds is parts._float_bounds
        clone = pickle.loads(pickle.dumps(parts))
        assert clone == parts and hash(clone) == hash(parts)
        assert vars(clone) == {"boundaries": parts.boundaries}


class TestFigure2Example:
    """The paper's Figure 2: partitioning of four partition-intervals;
    u starts in p1, spans into p2; v starts and ends within p2."""

    @pytest.fixture
    def parts(self):
        return Partitioning.uniform(0, 40, 4)  # p1=[0,10) ... p4=[30,40)

    @pytest.fixture
    def u(self):
        return Interval(6, 14)  # starts in p1, crosses into p2

    @pytest.fixture
    def v(self):
        return Interval(12, 18)  # inside p2

    def test_project(self, parts, u, v):
        assert parts.project(u) == 0
        assert parts.project(v) == 1

    def test_split(self, parts, u, v):
        assert list(parts.split(u)) == [0, 1]
        assert list(parts.split(v)) == [1]

    def test_replicate(self, parts, u, v):
        assert list(parts.replicate(u)) == [0, 1, 2, 3]
        assert list(parts.replicate(v)) == [1, 2, 3]


class TestPrimitiveAlgebra:
    def test_project_is_first_of_split(self):
        parts = Partitioning.uniform(0, 100, 10)
        for iv in (Interval(3, 55), Interval(10, 10), Interval(95, 99)):
            assert parts.project(iv) == list(parts.split(iv))[0]

    def test_split_subset_of_replicate(self):
        parts = Partitioning.uniform(0, 100, 10)
        for iv in (Interval(3, 55), Interval(42, 42), Interval(0, 99.9)):
            assert set(parts.split(iv)) <= set(parts.replicate(iv))

    def test_replicate_reaches_end(self):
        parts = Partitioning.uniform(0, 100, 10)
        assert list(parts.replicate(Interval(97, 99)))[-1] == 9

    def test_boundary_touching_split(self):
        parts = Partitioning.uniform(0, 100, 4)
        # Ends exactly on a boundary point: that point belongs to the next
        # partition, so split includes it.
        assert list(parts.split(Interval(10, 25))) == [0, 1]
        assert list(parts.split(Interval(10, 24.999))) == [0]


class TestCrossing:
    def test_crosses_right(self):
        parts = Partitioning.uniform(0, 40, 4)
        assert parts.crosses_right(Interval(6, 14), 0)
        assert not parts.crosses_right(Interval(6, 9), 0)
        # Ending exactly on the boundary point counts as crossing (the
        # point belongs to the next partition).
        assert parts.crosses_right(Interval(6, 10), 0)

    def test_crosses_left(self):
        parts = Partitioning.uniform(0, 40, 4)
        assert parts.crosses_left(Interval(6, 14), 1)
        assert not parts.crosses_left(Interval(10, 14), 1)

    def test_last_partition_has_no_right_crossing(self):
        parts = Partitioning.uniform(0, 40, 4)
        assert not parts.crosses_right(Interval(35, 39), 3)
        assert not parts.crosses_right(Interval(35, 1000), 3)

    def test_partition_interval(self):
        parts = Partitioning.uniform(0, 40, 4)
        assert parts.partition_interval(1) == Interval(10, 20)
        with pytest.raises(IndexError):
            parts.partition_interval(4)
