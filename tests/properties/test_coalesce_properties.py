"""Property-based tests for the Allen histogram and peak concurrency."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import allen_histogram, peak_concurrency
from repro.intervals.allen import relation_between
from repro.intervals.interval import Interval


def interval_lists(max_size=25):
    def build(pairs):
        return [Interval(min(a, b), max(a, b)) for a, b in pairs]

    scalars = st.integers(min_value=0, max_value=40)
    return st.lists(st.tuples(scalars, scalars), max_size=max_size).map(build)


class TestHistogramProperties:
    @given(interval_lists(15), interval_lists(15))
    @settings(max_examples=100)
    def test_histogram_total(self, left, right):
        histogram = allen_histogram(left, right)
        assert sum(histogram.values()) == len(left) * len(right)

    @given(interval_lists(12), interval_lists(12))
    @settings(max_examples=80)
    def test_histogram_matches_brute_force(self, left, right):
        histogram = allen_histogram(left, right)
        for u in left:
            for v in right:
                name = relation_between(u, v).name
                assert histogram[name] > 0

    @given(interval_lists(20))
    @settings(max_examples=100)
    def test_peak_bounded_by_size(self, intervals):
        assert 0 <= peak_concurrency(intervals) <= len(intervals)
