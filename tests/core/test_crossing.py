"""Unit tests for the crossing-set finder, cross-checked against a
brute-force enumeration of the Section-5 definitions plus the late-escape
condition (see the crossing module docstring: a set whose absent
relations are all order-dominated by the present ones — including the
vacuous full-relation-set case the paper excludes by remark — never needs
replication)."""

import itertools
import random

import pytest

from repro.core.algorithms.crossing import (
    CrossingSetFinder,
    has_late_escape,
    order_reachability,
)
from repro.columnar.batch import endpoint_column
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning
from repro.intervals.sets import crosses, is_consistent, normalize_conditions
from repro.intervals.sweep import SortedColumns


def columns_of(intervals):
    """Interval lists as the endpoint columns the finder takes."""
    return {
        name: SortedColumns(
            endpoint_column([iv.start for iv in ivs]),
            endpoint_column([iv.end for iv in ivs]),
        )
        for name, ivs in intervals.items()
    }


def brute_force_replicable(relations, conditions, partitioning, index, intervals):
    """Enumerate every interval-set (one interval from a subset of
    relations) and mark intervals in a consistent crossing set whose
    presence pattern has a late escape."""
    flagged = {name: [False] * len(intervals.get(name, [])) for name in relations}
    choices = {
        name: list(enumerate(intervals.get(name, []))) for name in relations
    }
    reach = order_reachability(list(relations), list(conditions))
    for r in range(1, len(relations) + 1):
        for subset in itertools.combinations(relations, r):
            if not has_late_escape(frozenset(subset), relations, reach):
                continue
            for combo in itertools.product(*(choices[name] for name in subset)):
                interval_set = {
                    name: iv for name, (_, iv) in zip(subset, combo)
                }
                if is_consistent(interval_set, conditions) and crosses(
                    interval_set, conditions, partitioning, index
                ):
                    for name, (position, _) in zip(subset, combo):
                        flagged[name][position] = True
    return flagged


class TestLateEscape:
    def test_full_pattern_never_escapes(self):
        conditions = normalize_conditions(CHAIN)
        relations = ["R1", "R2", "R3"]
        reach = order_reachability(relations, list(conditions))
        assert not has_late_escape(
            frozenset(relations), relations, reach
        )

    def test_missing_tail_escapes(self):
        conditions = normalize_conditions(CHAIN)
        relations = ["R1", "R2", "R3"]
        reach = order_reachability(relations, list(conditions))
        # R3 absent: no order path R3 <= {R1, R2} -> escape.
        assert has_late_escape(frozenset({"R1", "R2"}), relations, reach)

    def test_missing_head_does_not_escape(self):
        conditions = normalize_conditions(CHAIN)
        relations = ["R1", "R2", "R3"]
        reach = order_reachability(relations, list(conditions))
        # R1 absent: R1 <= R2 holds -> completions extend leftward only.
        assert not has_late_escape(frozenset({"R2", "R3"}), relations, reach)


def random_intervals(rng, n, lo, hi, max_len):
    out = []
    for _ in range(n):
        start = rng.uniform(lo, hi)
        out.append(Interval(start, start + rng.uniform(0, max_len)))
    return out


CHAIN = [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
STAR = [("R1", "contains", "R2"), ("R1", "contains", "R3")]
MIXED = [("R1", "overlaps", "R2"), ("R2", "contains", "R3")]
CYCLE = [
    ("R1", "overlaps", "R2"),
    ("R2", "overlaps", "R3"),
    ("R1", "overlaps", "R3"),
]
# The triangle with a tail: with R4 absent the present pattern
# {R1, R2, R3} is cyclic *and* has a late escape — the one shape here
# the backtracking solver decides (CYCLE alone never reaches it: the
# full triangle has no late escape and its 2-subsets are single edges).
TAILED = CYCLE + [("R3", "overlaps", "R4")]


@pytest.fixture
def cyclic_solutions(monkeypatch):
    """What every ``_solve_backtracking`` call of the test returned."""
    returned = []
    solve = CrossingSetFinder._solve_backtracking

    def recording(self, *args):
        returned.append(solve(self, *args))
        return returned[-1]

    monkeypatch.setattr(CrossingSetFinder, "_solve_backtracking", recording)
    return returned


@pytest.mark.parametrize("conditions", [CHAIN, STAR, MIXED, CYCLE, TAILED])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_finder_matches_brute_force(conditions, seed, cyclic_solutions):
    relations = sorted({n for l, _, r in conditions for n in (l, r)})
    normalized = normalize_conditions(conditions)
    partitioning = Partitioning.uniform(0, 60, 3)
    rng = random.Random(seed)
    index = 1  # middle partition
    part = partitioning.partition_interval(index)
    # All intervals must intersect the partition (the reducer's split
    # input); sample intervals straddling it in various ways.
    intervals = {}
    for name in relations:
        ivs = []
        for _ in range(8):
            start = rng.uniform(part.start - 15, part.end - 0.1)
            length = rng.uniform(0, 30)
            iv = Interval(start, start + length)
            if iv.intersects(part):
                ivs.append(iv)
        intervals[name] = ivs

    finder = CrossingSetFinder(relations, list(normalized), partitioning, index)
    masks = finder.replicable(columns_of(intervals))
    want = brute_force_replicable(
        relations, normalized, partitioning, index, intervals
    )
    for name in relations:
        got = [bool(x) for x in masks[name]]
        assert got == want[name], f"{name}: got={got} want={want[name]}"
    if conditions is TAILED:
        assert any(solved is not None for solved in cyclic_solutions)
    else:
        assert not cyclic_solutions


def test_empty_domains():
    conditions = normalize_conditions(CHAIN)
    partitioning = Partitioning.uniform(0, 30, 3)
    finder = CrossingSetFinder(
        ["R1", "R2", "R3"], list(conditions), partitioning, 1
    )
    masks = finder.replicable(columns_of({"R1": [], "R2": [], "R3": []}))
    assert all(len(mask) == 0 for mask in masks.values())
    assert all(len(mask) == 0 for mask in finder.replicable({}).values())


def test_last_partition_flags_nothing_for_chain():
    # In the final partition nothing can cross the right boundary, so a
    # chain query (whose crossing sets need rightward continuation for
    # the tail relation) flags fewer intervals; brute force agrees.
    conditions = normalize_conditions(CHAIN)
    partitioning = Partitioning.uniform(0, 30, 3)
    rng = random.Random(9)
    part = partitioning.partition_interval(2)
    intervals = {
        name: [
            iv
            for iv in random_intervals(rng, 6, part.start - 10, part.end - 0.1, 15)
            if iv.intersects(part)
        ]
        for name in ("R1", "R2", "R3")
    }
    finder = CrossingSetFinder(
        ["R1", "R2", "R3"], list(conditions), partitioning, 2
    )
    masks = finder.replicable(columns_of(intervals))
    want = brute_force_replicable(
        ("R1", "R2", "R3"), conditions, partitioning, 2, intervals
    )
    for name in ("R1", "R2", "R3"):
        assert [bool(x) for x in masks[name]] == want[name]


def test_tree_detection():
    assert CrossingSetFinder._edges_form_tree(["R1", "R2", "R3"], [0, 1])
    assert not CrossingSetFinder._edges_form_tree(
        ["R1", "R2", "R3"], [0, 1, 2]
    )


def test_too_many_relations_rejected():
    conditions = normalize_conditions(
        [(f"R{i}", "overlaps", f"R{i+1}") for i in range(1, 20)]
    )
    partitioning = Partitioning.uniform(0, 30, 3)
    with pytest.raises(ValueError):
        CrossingSetFinder(
            [f"R{i}" for i in range(1, 21)], list(conditions), partitioning, 1
        )
