"""Unit tests for the reducer-local join evaluator."""


import numpy as np
import pytest

from tests.conftest import make_dataset

from repro.core.local import LocalJoiner
from repro.core.query import IntervalJoinQuery
from repro.core.reference import reference_join
from repro.core.schema import Relation, Row
from repro.intervals.interval import Interval


QUERIES = [
    [("R1", "overlaps", "R2")],
    [("R1", "before", "R2")],
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
    [("R1", "before", "R2"), ("R2", "before", "R3")],
    [("R1", "before", "R2"), ("R1", "overlaps", "R3")],
    [("R1", "contains", "R2"), ("R2", "contains", "R3")],
    [
        ("R1", "overlaps", "R2"),
        ("R2", "overlaps", "R3"),
        ("R1", "before", "R3"),
    ],
]


class TestLocalJoiner:
    @pytest.mark.parametrize("conditions", QUERIES)
    def test_matches_reference(self, conditions):
        names = sorted({n for l, _, r in conditions for n in (l, r)})
        data = make_dataset(names, 40, seed=11)
        query = IntervalJoinQuery.parse(conditions)
        joiner = LocalJoiner(query)
        got = sorted(
            tuple(row.rid for row in t)
            for t in joiner.join({n: data[n].rows for n in names})
        )
        want = reference_join(query, data).tuple_ids()
        assert got == want

    def test_counts_comparisons(self):
        data = make_dataset(["R1", "R2"], 30, seed=5)
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        counted = []
        joiner = LocalJoiner(query, counted.append)
        list(joiner.join({n: data[n].rows for n in data}))
        assert sum(counted) > 0

    def test_accept_filter(self):
        data = make_dataset(["R1", "R2"], 30, seed=6)
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        joiner = LocalJoiner(query)
        all_tuples = list(joiner.join({n: data[n].rows for n in data}))
        # ``accept`` is a mask over a block of bindings: one column of
        # row indices per relation in, one boolean per binding out.
        none = list(
            joiner.join(
                {n: data[n].rows for n in data},
                accept=lambda b: np.zeros(len(b["R1"]), dtype=bool),
            )
        )
        assert none == []
        half = list(
            joiner.join(
                {n: data[n].rows for n in data},
                accept=lambda b: b["R1"] % 2 == 0,
            )
        )
        assert sorted(half, key=repr) == sorted(
            (t for t in all_tuples if t[0].rid % 2 == 0), key=repr
        )
        assert 0 < len(half) < len(all_tuples)

    def test_empty_relation_short_circuits(self):
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        joiner = LocalJoiner(query)
        rows = {"R1": [], "R2": [Row.make(0, {"I": Interval(0, 1)})]}
        assert list(joiner.join(rows)) == []

    def test_missing_relation_short_circuits(self):
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        joiner = LocalJoiner(query)
        assert list(joiner.join({"R1": [Row.make(0, {"I": Interval(0, 1)})]})) == []

    def test_multi_attribute_conditions(self):
        r1 = Relation.of_records(
            "R1",
            [
                {"I": Interval(0, 10), "A": 1.0},
                {"I": Interval(0, 10), "A": 2.0},
            ],
        )
        r2 = Relation.of_records(
            "R2",
            [{"I": Interval(5, 15), "A": 2.0}],
        )
        query = IntervalJoinQuery.parse(
            [("R1.I", "overlaps", "R2.I"), ("R1.A", "=", "R2.A")]
        )
        joiner = LocalJoiner(query)
        got = [
            tuple(row.rid for row in t)
            for t in joiner.join({"R1": r1.rows, "R2": r2.rows})
        ]
        assert got == [(1, 0)]
