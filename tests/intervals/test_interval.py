"""Unit tests for the Interval value type."""

import copy
import dataclasses
import math
import pickle

import pytest

from repro.errors import InvalidIntervalError
from repro.intervals.interval import Interval, point, span


class TestConstruction:
    def test_valid_interval(self):
        iv = Interval(1.0, 3.5)
        assert iv.start == 1.0
        assert iv.end == 3.5

    def test_point_interval_allowed(self):
        iv = Interval(2, 2)
        assert iv.length == 0

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(5, 4)

    def test_nan_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(math.nan, 1)
        with pytest.raises(InvalidIntervalError):
            Interval(0, math.nan)

    def test_immutable(self):
        iv = Interval(0, 1)
        with pytest.raises(AttributeError):
            iv.start = 5  # type: ignore[misc]

    def test_point_helper(self):
        assert point(7.5) == Interval(7.5, 7.5)


class TestGeometry:
    def test_length(self):
        assert Interval(2, 9).length == 7

    def test_intersects_shared_endpoint(self):
        assert Interval(0, 2).intersects(Interval(2, 5))
        assert Interval(2, 5).intersects(Interval(0, 2))

    def test_intersects_disjoint(self):
        assert not Interval(0, 1).intersects(Interval(2, 3))

    def test_intersects_containment(self):
        assert Interval(0, 10).intersects(Interval(3, 4))
        assert Interval(3, 4).intersects(Interval(0, 10))

    def test_intersection_value(self):
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 5).intersection(Interval(5, 9)) == Interval(5, 5)
        assert Interval(0, 1).intersection(Interval(2, 3)) is None

    def test_scale(self):
        assert Interval(2, 4).scale(2.0) == Interval(4, 8)
        assert Interval(2, 4).scale(0.5, origin=2) == Interval(2, 3)

    def test_scale_negative_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(0, 1).scale(-1)


class TestOrdering:
    def test_dataclass_ordering(self):
        assert Interval(1, 2) < Interval(1, 3) < Interval(2, 2)

    def test_hashable(self):
        assert len({Interval(0, 1), Interval(0, 1), Interval(0, 2)}) == 2


class TestSlots:
    def test_slotted_and_frozen(self):
        interval = Interval(0, 1)
        assert not hasattr(interval, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            interval.start = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            interval.extra = 0

    @pytest.mark.parametrize(
        "clone",
        [lambda iv: pickle.loads(pickle.dumps(iv)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_clones_equal_and_hash_alike(self, clone):
        interval = Interval(2, 2**60 + 1)
        twin = clone(interval)
        assert type(twin) is Interval
        assert twin == interval and hash(twin) == hash(interval)
        assert twin.end == 2**60 + 1 and not twin < interval
        assert twin != Interval(2, 3)

    def test_rebuilt_through_the_constructor(self):
        """What pickle and copy restore from is the constructor call,
        whose checks run again."""
        assert Interval(1, 2).__reduce__() == (Interval, (1, 2))


class TestSpan:
    def test_span_of_many(self):
        assert span([Interval(3, 4), Interval(0, 1), Interval(2, 9)]) == Interval(0, 9)

    def test_span_single(self):
        assert span([Interval(5, 6)]) == Interval(5, 6)

    def test_span_empty_raises(self):
        with pytest.raises(InvalidIntervalError):
            span([])

    def test_as_tuple_and_iter(self):
        assert tuple(Interval(1, 2)) == (1, 2)
