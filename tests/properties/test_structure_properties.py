"""Property-based tests for the interval tree and the sweep's candidate
windows."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.intervals.test_sweep import window_pairs

from repro.intervals.interval import Interval
from repro.intervals.sweep import ENDING_BEFORE, INTERSECTING, STARTING_AFTER
from repro.intervals.tree import IntervalTree


def interval_lists(max_size=40):
    def build(pairs):
        return [
            (Interval(min(a, b), max(a, b)), index)
            for index, (a, b) in enumerate(pairs)
        ]

    scalars = st.integers(min_value=0, max_value=50)
    return st.lists(st.tuples(scalars, scalars), max_size=max_size).map(build)


class TestTreeProperties:
    @given(interval_lists(), st.integers(min_value=-5, max_value=55))
    @settings(max_examples=200)
    def test_stabbing_matches_filter(self, items, t):
        tree = IntervalTree(items)
        got = sorted(payload for _, payload in tree.stabbing(t))
        want = sorted(
            payload for iv, payload in items if iv.start <= t <= iv.end
        )
        assert got == want

    @given(
        interval_lists(),
        st.tuples(
            st.integers(min_value=-5, max_value=55),
            st.integers(min_value=-5, max_value=55),
        ),
    )
    @settings(max_examples=200)
    def test_overlapping_matches_filter(self, items, bounds):
        a, b = sorted(bounds)
        query = Interval(a, b)
        tree = IntervalTree(items)
        got = sorted(payload for _, payload in tree.overlapping(query))
        want = sorted(
            payload for iv, payload in items if iv.intersects(query)
        )
        assert got == want


class TestSweepProperties:
    @given(interval_lists(20), interval_lists(20))
    @settings(max_examples=150)
    def test_intersecting_pairs_exact(self, left, right):
        got = sorted(window_pairs(INTERSECTING, left, right))
        want = sorted(
            (li, ri)
            for liv, li in left
            for riv, ri in right
            if liv.intersects(riv)
        )
        assert got == want
        assert len(got) == len(set(got))  # exactly once

    @given(interval_lists(20), interval_lists(20))
    @settings(max_examples=150)
    def test_before_pairs_exact(self, left, right):
        want = sorted(
            (li, ri)
            for liv, li in left
            for riv, ri in right
            if liv.end < riv.start
        )
        assert sorted(window_pairs(STARTING_AFTER, left, right)) == want
        assert sorted(
            (li, ri) for ri, li in window_pairs(ENDING_BEFORE, right, left)
        ) == want
