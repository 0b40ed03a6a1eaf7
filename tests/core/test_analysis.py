"""Unit tests for the analysis module (histograms + profiles)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    allen_histogram,
    concurrency_profile,
    peak_concurrency,
)
from repro.intervals.allen import ALLEN_PREDICATES, relation_between
from repro.intervals.interval import Interval


def random_intervals(seed, n, span=50, max_len=8):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        start = rng.randint(0, span)
        out.append(Interval(start, start + rng.randint(0, max_len)))
    return out


#: Integer endpoints, small ones mixed with neighbours of 2**53 (where
#: float64 stops telling consecutive integers apart).
_endpoints = st.one_of(
    st.integers(0, 12), st.integers(2**53 - 6, 2**53 + 6)
)
_mixed_intervals = st.tuples(_endpoints, _endpoints).map(
    lambda pair: Interval(min(pair), max(pair))
)


class TestAllenHistogram:
    def test_sums_to_cross_product(self):
        left = random_intervals(1, 40)
        right = random_intervals(2, 35)
        histogram = allen_histogram(left, right)
        assert sum(histogram.values()) == 40 * 35

    def test_matches_brute_force(self):
        left = random_intervals(3, 30)
        right = random_intervals(4, 30)
        histogram = allen_histogram(left, right)
        brute = {name: 0 for name in ALLEN_PREDICATES}
        for u in left:
            for v in right:
                brute[relation_between(u, v).name] += 1
        assert histogram == brute

    def test_empty_sides(self):
        histogram = allen_histogram([], random_intervals(5, 10))
        assert sum(histogram.values()) == 0

    def test_pure_sequence_data(self):
        left = [Interval(0, 1), Interval(2, 3)]
        right = [Interval(10, 11)]
        histogram = allen_histogram(left, right)
        assert histogram["before"] == 2
        assert sum(histogram.values()) == 2

    def test_endpoints_beyond_float64_are_not_lost(self):
        """A float cast rounds 2**53 + 1 onto 2**53: the pair used to be
        neither ``before`` nor intersecting, and vanished."""
        early, late = [Interval(0, 2**53)], [Interval(2**53 + 1, 2**53 + 5)]
        nothing = {name: 0 for name in ALLEN_PREDICATES}
        assert allen_histogram(early, late) == {**nothing, "before": 1}
        assert allen_histogram(late, early) == {**nothing, "after": 1}

    @settings(max_examples=150, deadline=None)
    @given(left=st.lists(_mixed_intervals, max_size=12),
           right=st.lists(_mixed_intervals, max_size=12))
    def test_every_pair_counted_once_at_any_magnitude(self, left, right):
        histogram = allen_histogram(left, right)
        assert sum(histogram.values()) == len(left) * len(right)
        brute = {name: 0 for name in ALLEN_PREDICATES}
        for u in left:
            for v in right:
                brute[relation_between(u, v).name] += 1
        assert histogram == brute


class TestConcurrencyProfile:
    def test_simple_profile(self):
        profile = concurrency_profile([Interval(0, 2), Interval(1, 3)])
        # starts at 0 (1 active), 1 (2 active), then drops after 2 and 3.
        assert profile[0] == (0, 1)
        assert profile[1] == (1, 2)
        assert profile[-1][1] == 0

    def test_closed_endpoints_both_active(self):
        # [0,2] and [2,5] are both active at t=2.
        assert peak_concurrency([Interval(0, 2), Interval(2, 5)]) == 2

    def test_peak(self):
        intervals = [Interval(0, 10), Interval(2, 5), Interval(3, 4)]
        assert peak_concurrency(intervals) == 3

    def test_empty(self):
        assert concurrency_profile([]) == []
        assert peak_concurrency([]) == 0

    def test_profile_is_consistent_with_stabbing(self):
        intervals = random_intervals(6, 50)
        profile = concurrency_profile(intervals)
        # At each breakpoint, the count equals a direct stabbing count.
        for time, count in profile[:20]:
            stab = sum(1 for iv in intervals if iv.contains_point(time))
            assert stab == count, time
