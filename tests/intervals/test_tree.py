"""Unit tests for the interval tree, cross-checked against brute force."""

import random

import pytest

from repro.intervals.interval import Interval
from repro.intervals.tree import IntervalTree


def brute_overlapping(items, query):
    return sorted(
        (payload for iv, payload in items if iv.intersects(query))
    )


def brute_stabbing(items, t):
    return sorted(
        (payload for iv, payload in items if iv.start <= t <= iv.end)
    )


@pytest.fixture
def random_items():
    rng = random.Random(42)
    items = []
    for index in range(300):
        start = rng.uniform(0, 100)
        end = start + rng.uniform(0, 15)
        items.append((Interval(start, end), index))
    return items


class TestIntervalTree:
    def test_empty_tree(self):
        tree = IntervalTree([])
        assert len(tree) == 0
        assert list(tree.overlapping(Interval(0, 10))) == []
        assert list(tree.stabbing(5)) == []

    def test_single_item(self):
        tree = IntervalTree([(Interval(2, 5), "x")])
        assert [p for _, p in tree.overlapping(Interval(4, 9))] == ["x"]
        assert [p for _, p in tree.overlapping(Interval(6, 9))] == []
        assert [p for _, p in tree.stabbing(2)] == ["x"]
        assert [p for _, p in tree.stabbing(5)] == ["x"]
        assert [p for _, p in tree.stabbing(5.01)] == []

    def test_duplicates_all_reported(self):
        tree = IntervalTree([(Interval(0, 5), "a"), (Interval(0, 5), "b")])
        assert sorted(p for _, p in tree.overlapping(Interval(1, 2))) == [
            "a",
            "b",
        ]

    def test_overlapping_matches_brute_force(self, random_items):
        tree = IntervalTree(random_items)
        rng = random.Random(7)
        for _ in range(200):
            qs = rng.uniform(-5, 105)
            qe = qs + rng.uniform(0, 20)
            query = Interval(qs, qe)
            got = sorted(p for _, p in tree.overlapping(query))
            assert got == brute_overlapping(random_items, query)

    def test_stabbing_matches_brute_force(self, random_items):
        tree = IntervalTree(random_items)
        rng = random.Random(8)
        for _ in range(200):
            t = rng.uniform(-5, 105)
            got = sorted(p for _, p in tree.stabbing(t))
            assert got == brute_stabbing(random_items, t)

    def test_stabbing_endpoints(self, random_items):
        tree = IntervalTree(random_items)
        # Endpoints are inclusive: stab exactly at starts and ends.
        for iv, payload in random_items[:50]:
            assert payload in {p for _, p in tree.stabbing(iv.start)}
            assert payload in {p for _, p in tree.stabbing(iv.end)}

    def test_point_intervals(self):
        items = [(Interval(i, i), i) for i in range(10)]
        tree = IntervalTree(items)
        assert [p for _, p in tree.stabbing(4)] == [4]
        got = sorted(p for _, p in tree.overlapping(Interval(2.5, 6)))
        assert got == [3, 4, 5, 6]
