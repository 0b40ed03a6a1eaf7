"""Property-based tests for the pair kernel.

:func:`repro.intervals.sweep.true_pairs` — and :func:`join_pairs`, its
item-level adapter — must produce exactly the pair set of the
brute-force nested loop over ``predicate.holds`` for all thirteen
predicates, including on degenerate (zero-length) intervals and touching
endpoints, where the window boundaries are easiest to get wrong, on
``object`` columns (integer endpoints beyond 2**53) and however many
blocks the candidate windows are cut into.  :class:`WindowPlan`, the one
window computation under it, must yield exactly the window members of
the nested loop — as many candidates, which is what
``work:comparisons`` is charged from — on unsorted, duplicated and tied
probes, a restricted index and block cuts inside a row's probe window.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import sweep
from repro.intervals.allen import ALLEN_PREDICATES
from repro.intervals.interval import Interval
from repro.intervals.sweep import (
    COVERING_START,
    ENDING_BEFORE,
    INTERSECTING,
    STARTING_AFTER,
    STARTING_WITHIN,
    SortedColumns,
    WindowPlan,
    join_pairs,
    true_pairs,
    window_kind,
)

# Small integer endpoints so equal/touching endpoints are common.
interval_strategy = st.tuples(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=6),
).map(lambda t: Interval(t[0], t[0] + t[1]))


def sides(intervals=interval_strategy):
    return st.lists(intervals, min_size=0, max_size=25).map(
        lambda intervals: [(iv, i) for i, iv in enumerate(intervals)]
    )


#: The same shapes shifted to where float64 cannot tell neighbours apart.
BIG = 2**53
big_sides = sides(
    interval_strategy.map(lambda iv: Interval(BIG + iv.start, BIG + iv.end))
)


def brute_force(left, right, predicate):
    return sorted(
        (li, ri)
        for liv, li in left
        for riv, ri in right
        if predicate.holds(liv, riv)
    )


def kernel_pairs(left, right, predicate):
    """The column-level kernel's pairs, every block, as a multiset."""
    columns = [
        SortedColumns.of_intervals([iv for iv, _ in side])
        for side in (left, right)
    ]
    pairs = Counter()
    for left_rows, right_rows in true_pairs(predicate, *columns):
        assert left_rows.dtype == right_rows.dtype == np.int64
        pairs.update(zip(left_rows.tolist(), right_rows.tolist()))
    return pairs


@pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
@settings(max_examples=60, deadline=None)
@given(left=sides(), right=sides())
def test_kernel_matches_brute_force(name, left, right):
    predicate = ALLEN_PREDICATES[name]
    got = sorted(
        (li, ri) for (_, li), (_, ri) in join_pairs(left, right, predicate)
    )
    assert got == brute_force(left, right, predicate)


@pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
@settings(max_examples=40, deadline=None)
@given(left=big_sides, right=st.one_of(big_sides, sides()))
def test_column_kernel_is_exact_beyond_float64(name, left, right):
    """Endpoints float64 would round travel on ``object`` columns —
    against a float64 side too — and compare as the integers they are."""
    predicate = ALLEN_PREDICATES[name]
    ends = [iv.end for iv, _ in left]
    column = SortedColumns.of_intervals([iv for iv, _ in left]).ends
    assert (column.dtype == object) == any(float(end) != end for end in ends)
    assert kernel_pairs(left, right, predicate) == Counter(
        brute_force(left, right, predicate)
    )
    assert kernel_pairs(right, left, predicate) == Counter(
        brute_force(right, left, predicate)
    )


@pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
@pytest.mark.parametrize("block", [1, 7])
@settings(max_examples=25, deadline=None)
@given(left=sides(), right=sides())
def test_blocking_changes_no_pair(name, block, left, right):
    """Many blocks, the same pair multiset."""
    predicate = ALLEN_PREDICATES[name]
    with mock.patch.object(sweep, "MAX_CANDIDATE_PAIRS", block):
        assert kernel_pairs(left, right, predicate) == Counter(
            brute_force(left, right, predicate)
        )


@pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
def test_kernel_on_degenerate_and_touching(name):
    """Zero-length intervals and shared endpoints, exhaustively paired."""
    predicate = ALLEN_PREDICATES[name]
    intervals = [
        Interval(0, 0),
        Interval(0, 5),
        Interval(5, 5),
        Interval(5, 9),
        Interval(0, 9),
        Interval(0, 5),  # duplicate: equals must pair both
        Interval(9, 12),
        Interval(5, 12),
    ]
    left = [(iv, f"l{i}") for i, iv in enumerate(intervals)]
    right = [(iv, f"r{i}") for i, iv in enumerate(intervals)]
    got = sorted(
        (li, ri) for (_, li), (_, ri) in join_pairs(left, right, predicate)
    )
    assert got == brute_force(left, right, predicate)


@pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
def test_kernel_empty_sides(name):
    predicate = ALLEN_PREDICATES[name]
    some = [(Interval(0, 3), 0)]
    assert list(join_pairs([], some, predicate)) == []
    assert list(join_pairs(some, [], predicate)) == []
    assert list(join_pairs([], [], predicate)) == []


@pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
def test_kernel_yields_original_items(name):
    """The adapter must yield the caller's (interval, payload) items intact."""
    predicate = ALLEN_PREDICATES[name]
    left = [(Interval(0, 5), {"row": 1}), (Interval(5, 9), {"row": 2})]
    right = [(Interval(0, 5), {"row": 3}), (Interval(9, 12), {"row": 4})]
    for l_item, r_item in join_pairs(left, right, name):
        assert any(l_item is item for item in left)
        assert any(r_item is item for item in right)
        assert predicate.holds(l_item[0], r_item[0])


#: Whether ``row`` is in ``probe``'s window, per kind: the nested loop
#: :class:`WindowPlan` must agree with.
WINDOW_MEMBER = {
    INTERSECTING: lambda probe, row: probe.intersects(row),
    STARTING_AFTER: lambda probe, row: row.start > probe.end,
    ENDING_BEFORE: lambda probe, row: row.end < probe.start,
    STARTING_WITHIN: lambda probe, row: probe.start <= row.start <= probe.end,
    COVERING_START: lambda probe, row: row.start <= probe.start <= row.end,
}


def restricted_sides(intervals=interval_strategy):
    """A probe side and an index side with a mask over its rows."""
    return st.tuples(
        sides(intervals),
        st.lists(st.tuples(intervals, st.booleans()), max_size=25),
    )


def check_window_plan(predicate, left, masked_right, block):
    """The plan's candidates — every block — against the nested loop
    over the unmasked rows: the pair multiset, the candidate count the
    blocks add up to, the sizes, the block bound; then the kernel on the
    same restricted index against the predicate's nested loop."""
    probes = SortedColumns.of_intervals([iv for iv, _ in left])
    parent = SortedColumns.of_intervals([iv for iv, _ in masked_right])
    kind = window_kind(predicate)
    WindowPlan(parent, kind, probes.starts, probes.ends)  # sorts the parent
    index = parent.restrict(
        np.array([keep for _, keep in masked_right], dtype=bool)
    )
    assert index._full_orders is parent._full_orders
    members = Counter(
        (i, j)
        for i, (probe, _) in enumerate(left)
        for j, (row, keep) in enumerate(masked_right)
        if keep and WINDOW_MEMBER[kind](probe, row)
    )
    with mock.patch.object(sweep, "MAX_CANDIDATE_PAIRS", block):
        plan = WindowPlan(index, kind, probes.starts, probes.ends)
        blocks = list(plan.blocks())
        kept = Counter()
        for left_rows, right_rows in true_pairs(predicate, probes, index):
            kept.update(zip(left_rows.tolist(), right_rows.tolist()))
    candidates = Counter()
    for probe, row in blocks:
        assert len(probe) == len(row)
        assert len(row) <= block or len(set(probe.tolist())) == 1
        candidates.update(zip(probe.tolist(), row.tolist()))
    assert candidates == members
    assert sum(len(row) for _, row in blocks) == sum(members.values())
    per_probe = Counter(i for i, _ in members.elements())
    assert sorted(plan.sizes.tolist()) == sorted(
        per_probe[i] for i in range(len(left))
    )
    if predicate.is_colocation:
        assert 1 not in parent._full_orders  # no by-end order is built
    assert kept == Counter(
        (i, j)
        for i, (probe, _) in enumerate(left)
        for j, (row, keep) in enumerate(masked_right)
        if keep and predicate.holds(probe, row)
    )


@pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
@pytest.mark.parametrize("block", [1, 2, 7, sweep.MAX_CANDIDATE_PAIRS])
@settings(max_examples=25, deadline=None)
@given(drawn=restricted_sides())
def test_window_plan_matches_nested_loop(name, block, drawn):
    """Small integer endpoints: probes arrive unsorted, repeat and tie
    on start; zero-length and touching intervals are common; cuts of 1,
    2 and 7 candidates fall inside a row's probe window (the second
    ``INTERSECTING`` family)."""
    check_window_plan(ALLEN_PREDICATES[name], *drawn, block)


@pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
@settings(max_examples=15, deadline=None)
@given(
    drawn=restricted_sides(
        interval_strategy.map(lambda iv: Interval(BIG + iv.start, BIG + iv.end))
    ),
    block=st.sampled_from([2, sweep.MAX_CANDIDATE_PAIRS]),
)
def test_window_plan_is_exact_beyond_float64(name, drawn, block):
    check_window_plan(ALLEN_PREDICATES[name], *drawn, block)


@pytest.mark.parametrize("name", sorted(ALLEN_PREDICATES))
def test_window_plan_fixed_cases(name):
    """An empty probe or index side, an all-masked index, and a block
    cut inside the probe window of a long row."""
    predicate = ALLEN_PREDICATES[name]
    some = [(Interval(3, 3), 0), (Interval(0, 9), 1), (Interval(3, 4), 2)]
    long_row = [(Interval(0, 20), True), (Interval(5, 5), True)]
    stabbing = [(Interval(t, t + 1), t) for t in (7, 1, 7, 3, 12, 1, 5)]
    for left, right in (
        ([], [(iv, True) for iv, _ in some]),
        (some, []),
        (some, [(iv, False) for iv, _ in some]),
        (stabbing, long_row),
    ):
        for block in (1, 2, 3, sweep.MAX_CANDIDATE_PAIRS):
            check_window_plan(predicate, left, right, block)


def sorted_sides(intervals=interval_strategy):
    """Intervals in start order — ties on start keep their drawn order,
    so the ends of a tie need not be sorted — with a mask over them."""
    return st.lists(st.tuples(intervals, st.booleans()), max_size=25).map(
        lambda drawn: sorted(drawn, key=lambda item: item[0].start)
    )


def plan_parts(index, kind, probes, block):
    """A plan's sizes and every block it expands."""
    with mock.patch.object(sweep, "MAX_CANDIDATE_PAIRS", block):
        plan = WindowPlan(index, kind, probes.starts, probes.ends)
        return plan.sizes, list(plan.blocks())


@pytest.mark.parametrize(
    "kind",
    [INTERSECTING, STARTING_AFTER, ENDING_BEFORE, STARTING_WITHIN, COVERING_START],
)
@settings(max_examples=60, deadline=None)
@given(
    probes=sorted_sides(), index=sorted_sides(), restrict=st.booleans(),
    block=st.sampled_from([1, 3, sweep.MAX_CANDIDATE_PAIRS]),
)
def test_a_sorted_column_plans_as_if_sorted_again(kind, probes, index, restrict, block):
    """Columns that arrive in start order are not sorted by start again.
    Skipping that sort changes nothing: the plan's sizes and blocks —
    windows, visiting order and tie order — equal those of a plan whose
    every order is an explicit stable ``argsort``."""

    def column(side):
        return SortedColumns.of_intervals([iv for iv, _ in side])

    def indexed():
        full = column(index)
        mask = np.array([keep for _, keep in index], dtype=bool)
        return full.restrict(mask) if restrict else full

    probe_columns = column(probes)
    if len(probes) > 1:
        assert sweep._stable_order(probe_columns.starts) is None
    skipped = plan_parts(indexed(), kind, probe_columns, block)
    with mock.patch.object(
        sweep, "_stable_order", lambda keys: np.argsort(keys, kind="stable")
    ):
        sorted_again = plan_parts(indexed(), kind, probe_columns, block)
    assert skipped[0].tolist() == sorted_again[0].tolist()
    assert len(skipped[1]) == len(sorted_again[1])
    for (probe, row), (probe_again, row_again) in zip(skipped[1], sorted_again[1]):
        assert probe.tolist() == probe_again.tolist()
        assert row.tolist() == row_again.tolist()
