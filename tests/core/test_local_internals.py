"""Unit tests for LocalJoiner internals: the access paths over one
relation's sorted columns, binding order, anchored starts, blocking and
the anchored decomposition."""

import numpy as np
import pytest

from tests.conftest import make_dataset

from repro.core.local import LocalJoiner, anchored_join, attribute_columns
from repro.core.query import IntervalJoinQuery, Term
from repro.core.reference import reference_join
from repro.core.schema import Row
from repro.intervals import sweep
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import (
    ALL_ROWS,
    ENDING_BEFORE,
    INTERSECTING,
    STARTING_AFTER,
    SortedColumns,
    WindowPlan,
)


def rows_of(intervals):
    return [Row.make(i, {"I": iv}) for i, iv in enumerate(intervals)]


class TestRelationIndex:
    """The candidate windows of one relation's sorted columns."""

    @pytest.fixture
    def index(self):
        return SortedColumns(
            np.array([0.0, 3.0, 10.0]), np.array([5.0, 9.0, 12.0])
        )

    @staticmethod
    def candidates(index, kind, start, end):
        plan = WindowPlan(
            index, kind, np.array([float(start)]), np.array([float(end)])
        )
        ((probe, rows),) = plan.blocks()  # one probe is one block
        assert probe.tolist() == [0] * len(rows)
        assert plan.sizes.tolist() == [len(rows)]
        return sorted(rows.tolist())

    def test_intersecting(self, index):
        assert self.candidates(index, INTERSECTING, 4, 6) == [0, 1]
        # Closed on both sides: touching endpoints intersect.
        assert self.candidates(index, INTERSECTING, 9, 10) == [1, 2]
        assert self.candidates(index, INTERSECTING, 9.5, 9.5) == []

    def test_starting_after(self, index):
        assert self.candidates(index, STARTING_AFTER, 0, 3) == [2]
        assert self.candidates(index, STARTING_AFTER, 0, 2.9) == [1, 2]

    def test_ending_before(self, index):
        assert self.candidates(index, ENDING_BEFORE, 9, 9) == [0]
        assert self.candidates(index, ENDING_BEFORE, 20, 20) == [0, 1, 2]

    def test_scan(self, index):
        assert self.candidates(index, ALL_ROWS, 0, 0) == [0, 1, 2]

    def test_restriction_shares_the_sort_and_keeps_row_numbers(self, index):
        WindowPlan(index, INTERSECTING, np.array([0.0]), np.array([1.0]))
        narrowed = index.restrict(np.array([False, True, True]))
        assert narrowed._full_orders is index._full_orders
        assert len(narrowed) == 2 and narrowed.rows().tolist() == [1, 2]
        assert self.candidates(narrowed, INTERSECTING, 4, 6) == [1]
        assert self.candidates(narrowed, ENDING_BEFORE, 20, 20) == [1, 2]
        again = narrowed.restrict(np.array([True, True, False]))
        assert again.rows().tolist() == [1]


class TestBindingOrder:
    def test_start_with_changes_first_relation(self):
        q = IntervalJoinQuery.parse(
            [("A", "overlaps", "B"), ("B", "overlaps", "C")]
        )
        default = LocalJoiner(q)._binding_order
        anchored = LocalJoiner(q, start_with="C")._binding_order
        assert default[0] == "A"
        assert anchored[0] == "C"
        assert anchored == ("C", "B", "A")

    def test_start_with_unknown_relation(self):
        q = IntervalJoinQuery.parse([("A", "overlaps", "B")])
        with pytest.raises(ValueError):
            LocalJoiner(q, start_with="Z")

    @pytest.mark.parametrize("start", ["A", "B", "C"])
    def test_any_start_gives_same_output(self, start):
        q = IntervalJoinQuery.parse(
            [("A", "overlaps", "B"), ("B", "before", "C")]
        )
        data = make_dataset(["A", "B", "C"], 20, seed=42)
        rows = {name: data[name].rows for name in data}
        joiner = LocalJoiner(q, start_with=start)
        got = sorted(
            tuple(r.rid for r in t) for t in joiner.join(rows)
        )
        want = reference_join(q, data).tuple_ids()
        assert got == want


class TestBlocking:
    def test_more_blocks_than_rows_changes_nothing(self, monkeypatch):
        q = IntervalJoinQuery.parse(
            [("A", "overlaps", "B"), ("B", "before", "C")]
        )
        data = make_dataset(["A", "B", "C"], 25, seed=3)
        rows = {name: data[name].rows for name in data}

        def run():
            counted = []
            tuples = sorted(
                tuple(r.rid for r in t)
                for t in LocalJoiner(q, counted.append).join(rows)
            )
            return tuples, counted

        whole = run()
        monkeypatch.setattr(sweep, "MAX_CANDIDATE_PAIRS", 1)
        assert run() == whole
        assert whole[0] == reference_join(q, data).tuple_ids()
        assert len(whole[1]) == 1  # charged once per join

    def test_blocks_cover_every_partial_once(self, monkeypatch):
        monkeypatch.setattr(sweep, "MAX_CANDIDATE_PAIRS", 10)
        sizes = np.array([3, 3, 3, 30, 0, 0, 4, 7])
        blocks = list(sweep._blocks(sizes))
        assert blocks == [(0, 3), (3, 4), (4, 7), (7, 8)]
        assert list(sweep._blocks(np.array([], dtype=np.int64))) == []


class TestAnchoredJoin:
    def test_each_tuple_with_a_local_member_exactly_once(self):
        q = IntervalJoinQuery.parse(
            [("A", "overlaps", "B"), ("B", "overlaps", "C")]
        )
        data = make_dataset(["A", "B", "C"], 30, seed=9)
        rows = {name: data[name].rows for name in data}
        columns = {t: attribute_columns(rows[t.relation], t.attribute) for t in q.terms}
        anchors = [Term(name, "I") for name in q.relations]
        halves = Partitioning((0.0, 100.0, 300.0))
        counted = []
        got = sorted(
            tuple(int(binding[name][i]) for name in q.relations)
            for binding in anchored_join(q, counted.append, columns, anchors, [
                halves.locate_array(columns[t].starts) == 1 for t in anchors
            ])
            for i in range(len(binding["A"]))
        )
        want = [
            ids
            for ids in reference_join(q, data).tuple_ids()
            if any(
                rows[name][rid].interval("I").start >= 100.0
                for name, rid in zip(q.relations, ids)
            )
        ]
        assert got == want and want
        assert len(counted) <= len(anchors)
