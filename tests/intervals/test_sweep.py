"""Unit tests for the array sweep's windows and the item-level adapter."""

import random

import pytest

from repro.intervals.allen import ALLEN_PREDICATES
from repro.intervals.interval import Interval
from repro.intervals.sweep import (
    ENDING_BEFORE,
    INTERSECTING,
    STARTING_AFTER,
    SortedColumns,
    join_pairs,
    window_blocks,
    window_kind,
)


def random_side(seed, n, span=60, max_len=10, integer=True):
    rng = random.Random(seed)
    out = []
    for index in range(n):
        start = rng.randint(0, span) if integer else rng.uniform(0, span)
        length = rng.randint(0, max_len) if integer else rng.uniform(0, max_len)
        out.append((Interval(start, start + length), index))
    return out


def window_pairs(kind, left, right):
    """The ``(left payload, right payload)`` pairs of the ``kind``
    windows of ``left``'s intervals over ``right``'s column."""
    index = SortedColumns.of_intervals([iv for iv, _ in right])
    probes = SortedColumns.of_intervals([iv for iv, _ in left])
    return [
        (left[i][1], right[j][1])
        for probe, row in window_blocks(index, kind, probes.starts, probes.ends)
        for i, j in zip(probe.tolist(), row.tolist())
    ]


def intersecting_pairs(left, right):
    return window_pairs(INTERSECTING, left, right)


def before_pairs(left, right):
    """Pairs with ``left.end < right.start``: the rights starting after."""
    return window_pairs(STARTING_AFTER, left, right)


class TestIntersectingPairs:
    def test_small_example(self):
        left = [(Interval(0, 5), "a"), (Interval(10, 12), "b")]
        right = [(Interval(4, 11), "x")]
        assert sorted(intersecting_pairs(left, right)) == [
            ("a", "x"), ("b", "x"),
        ]

    def test_matches_brute_force(self):
        left = random_side(1, 120)
        right = random_side(2, 150)
        want = sorted(
            (li, ri)
            for liv, li in left
            for riv, ri in right
            if liv.intersects(riv)
        )
        assert sorted(intersecting_pairs(left, right)) == want

    def test_each_pair_exactly_once(self):
        left = random_side(3, 80)
        right = random_side(4, 80)
        got = intersecting_pairs(left, right)
        assert len(got) == len(set(got))

    def test_empty_sides(self):
        assert intersecting_pairs([], random_side(5, 10)) == []
        assert intersecting_pairs(random_side(5, 10), []) == []

    def test_shared_endpoint_counts(self):
        left = [(Interval(0, 5), 0)]
        right = [(Interval(5, 9), 0)]
        assert len(intersecting_pairs(left, right)) == 1


class TestBeforePairs:
    def test_matches_brute_force(self):
        left = random_side(6, 100)
        right = random_side(7, 100)
        want = sorted(
            (li, ri)
            for liv, li in left
            for riv, ri in right
            if liv.end < riv.start
        )
        assert sorted(before_pairs(left, right)) == want
        # The same pairs from the other side: the lefts ending before.
        assert sorted(
            (li, ri) for ri, li in window_pairs(ENDING_BEFORE, right, left)
        ) == want

    def test_touching_is_not_before(self):
        left = [(Interval(0, 5), 0)]
        right = [(Interval(5, 9), 0)]
        assert before_pairs(left, right) == []
        assert window_pairs(ENDING_BEFORE, right, left) == []


class TestWindowKind:
    def test_colocation_predicates_intersect_whichever_side_is_indexed(self):
        for predicate in ALLEN_PREDICATES.values():
            if predicate.is_colocation:
                assert window_kind(predicate) == INTERSECTING
                assert window_kind(predicate, indexed_is_left=True) == INTERSECTING

    def test_sequence_predicates_follow_the_indexed_side(self):
        before, after = ALLEN_PREDICATES["before"], ALLEN_PREDICATES["after"]
        # u before v: the v's start after u; the u's end before v.
        assert window_kind(before) == STARTING_AFTER
        assert window_kind(before, indexed_is_left=True) == ENDING_BEFORE
        assert window_kind(after) == ENDING_BEFORE
        assert window_kind(after, indexed_is_left=True) == STARTING_AFTER


class TestJoinPairs:
    @pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
    def test_every_predicate_matches_brute_force(self, name):
        predicate = ALLEN_PREDICATES[name]
        left = random_side(8, 90)
        right = random_side(9, 90)
        got = sorted((l[1], r[1]) for l, r in join_pairs(left, right, name))
        want = sorted(
            (li, ri)
            for liv, li in left
            for riv, ri in right
            if predicate.holds(liv, riv)
        )
        assert got == want

    def test_endpoints_beyond_float64_stay_exact(self):
        left = [(Interval(0, 2**53), "a")]
        right = [(Interval(2**53 + 1, 2**53 + 5), "x")]
        assert list(join_pairs(left, right, "before")) == [(left[0], right[0])]
        assert list(join_pairs(left, right, "meets")) == []
        assert list(join_pairs(right, left, "after")) == [(right[0], left[0])]
