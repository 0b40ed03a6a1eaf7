"""Integration: every applicable algorithm produces exactly the reference
output on every query shape — the paper's central correctness claim."""

import zlib

import pytest

from tests.conftest import assert_matches_reference, make_dataset

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery, QueryClass

# (name, conditions, applicable algorithms)
SCENARIOS = [
    (
        "2way-overlaps",
        [("R1", "overlaps", "R2")],
        ["two_way", "all_replicate", "gen_matrix"],
    ),
    (
        "2way-before",
        [("R1", "before", "R2")],
        ["two_way", "all_replicate", "all_matrix", "gen_matrix"],
    ),
    (
        "colocation-chain",
        [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
        ["rccis", "all_replicate", "two_way_cascade", "all_seq_matrix",
         "gen_matrix"],
    ),
    (
        "colocation-mixed",
        [("R1", "overlaps", "R2"), ("R2", "contains", "R3")],
        ["rccis", "all_replicate", "two_way_cascade", "all_seq_matrix"],
    ),
    (
        "colocation-star",
        [("R1", "contains", "R2"), ("R1", "contains", "R3")],
        ["rccis", "all_replicate", "two_way_cascade", "all_seq_matrix"],
    ),
    (
        "colocation-4chain",
        [
            ("R1", "overlaps", "R2"),
            ("R2", "contains", "R3"),
            ("R3", "overlaps", "R4"),
        ],
        ["rccis", "all_replicate", "two_way_cascade"],
    ),
    (
        "colocation-cycle",
        [
            ("R1", "overlaps", "R2"),
            ("R2", "overlaps", "R3"),
            ("R1", "overlaps", "R3"),
        ],
        ["rccis", "all_replicate", "two_way_cascade"],
    ),
    (
        "sequence-chain",
        [("R1", "before", "R2"), ("R2", "before", "R3")],
        ["all_matrix", "all_replicate", "two_way_cascade", "gen_matrix"],
    ),
    (
        "sequence-fork",
        [("R1", "before", "R2"), ("R1", "before", "R3")],
        ["all_matrix", "all_replicate", "two_way_cascade"],
    ),
    (
        "hybrid-q3",
        [
            ("R1", "overlaps", "R2"),
            ("R2", "overlaps", "R3"),
            ("R2", "before", "R4"),
            ("R4", "overlaps", "R5"),
        ],
        ["all_seq_matrix", "pasm", "fcts", "fstc", "all_replicate",
         "two_way_cascade"],
    ),
    (
        "hybrid-q4",
        [("R1", "before", "R2"), ("R1", "overlaps", "R3")],
        ["all_seq_matrix", "pasm", "fcts", "fstc", "all_replicate",
         "two_way_cascade"],
    ),
    (
        "hybrid-unsound-pruning-shape",
        [
            ("R1", "overlaps", "R2"),
            ("R2", "overlaps", "R2b"),
            ("R1", "before", "R4"),
        ],
        ["all_seq_matrix", "pasm", "fcts", "all_replicate",
         "two_way_cascade"],
    ),
    (
        "hybrid-intra-component-sequence",
        [
            ("R1", "overlaps", "R2"),
            ("R2", "overlaps", "R3"),
            ("R1", "before", "R3"),
        ],
        ["all_seq_matrix", "pasm", "all_replicate", "two_way_cascade"],
    ),
]


@pytest.mark.parametrize(
    "name,conditions,algorithms", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
@pytest.mark.parametrize("num_partitions", [1, 3, 7])
def test_algorithm_matches_reference(name, conditions, algorithms, num_partitions):
    relations = sorted({n for l, _, r in conditions for n in (l, r)})
    # Sequence joins explode combinatorially; keep those datasets small.
    has_sequence = any(p in ("before", "after") for _, p, _ in conditions)
    n = 18 if has_sequence else 30
    data = make_dataset(relations, n, seed=zlib.crc32(name.encode()) % 1000, span=150.0)
    query = IntervalJoinQuery.parse(conditions)
    for algorithm in algorithms:
        result = execute(
            query, data, algorithm=algorithm, num_partitions=num_partitions
        )
        assert_matches_reference(query, data, result)


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
def test_rccis_decides_a_cyclic_present_pattern(executor, monkeypatch):
    """A triangle with a tail: at a partition R4 has not reached yet,
    the present pattern {R1, R2, R3} is cyclic *and* has a late escape,
    so the flag cycle decides it with the crossing-set finder's
    backtracking solver — which no tree-shaped query, and not the bare
    triangle either (``colocation-cycle`` above: the full pattern has no
    late escape, its 2-subsets are single edges), ever calls."""
    from repro.core.algorithms.crossing import CrossingSetFinder

    solved = []
    solve = CrossingSetFinder._solve_backtracking

    def recording(self, *args):
        solved.append(solve(self, *args))
        return solved[-1]

    monkeypatch.setattr(CrossingSetFinder, "_solve_backtracking", recording)
    query = IntervalJoinQuery.parse(
        [
            ("R1", "overlaps", "R2"),
            ("R2", "overlaps", "R3"),
            ("R1", "overlaps", "R3"),
            ("R3", "overlaps", "R4"),
        ]
    )
    data = make_dataset(
        ("R1", "R2", "R3", "R4"), 150, seed=19, span=1000.0, max_length=100.0
    )
    result = execute(
        query, data, algorithm="rccis", num_partitions=4,
        executor=executor, workers=2,
    )
    assert_matches_reference(query, data, result)
    assert len(result) > 1000
    if executor != "processes":  # pool workers solve out of sight
        assert any(masks is not None for masks in solved)


def test_planner_default_for_every_class():
    cases = {
        QueryClass.COLOCATION: [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
        QueryClass.SEQUENCE: [("R1", "before", "R2"), ("R2", "before", "R3")],
        QueryClass.HYBRID: [("R1", "before", "R2"), ("R1", "overlaps", "R3")],
    }
    for klass, conditions in cases.items():
        query = IntervalJoinQuery.parse(conditions)
        assert query.query_class is klass
        data = make_dataset(sorted(query.relations), 20, seed=99)
        result = execute(query, data, num_partitions=4)
        assert_matches_reference(query, data, result)


def test_point_intervals_degenerate_to_equi_join():
    """Length-0 intervals: colocation joins behave like equality joins
    (the paper's Section 6.3 observation)."""
    from repro.core.schema import Relation
    from repro.intervals.interval import Interval
    import random

    rng = random.Random(4)
    data = {
        name: Relation.of_intervals(
            name, [Interval(v, v) for v in (rng.randint(0, 15) for _ in range(25))]
        )
        for name in ("R1", "R2", "R3")
    }
    query = IntervalJoinQuery.parse(
        [("R1", "equals", "R2"), ("R2", "equals", "R3")]
    )
    for algorithm in ("rccis", "all_replicate", "two_way_cascade"):
        result = execute(query, data, algorithm=algorithm, num_partitions=4)
        assert_matches_reference(query, data, result)
