"""Granular unit tests for the algorithms' mapper and reducer classes,
exercised directly (outside a job) against hand-built partitionings:
mappers record by record, reducers as the runner drives a kernel."""


import pytest

from tests.conftest import column_values, run_kernel

from repro.core.algorithms.rccis import (
    FlaggingReducer,
    JoinReducer,
    RouteMapper,
    SplitMapper,
)
from repro.core.algorithms.two_way import OperatorMapper
from repro.core.query import IntervalJoinQuery, Term
from repro.core.schema import Row
from repro.intervals.allen import MapOperator
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.counters import Counters
from repro.mapreduce.task import MapContext


PARTS = Partitioning.uniform(0, 40, 4)  # p0..p3, width 10


def row(rid, start, end):
    return Row.make(rid, {"I": Interval(start, end)})


def run_mapper(mapper, records):
    context = MapContext(Counters(), "test")
    for record in records:
        mapper.map(record, context)
    return context.drain(), context.counters


def run_reducer(reducer, key, values):
    """One key group of ``(relation, row)`` values, each routed on its
    ``I``, through the reducer's kernel and formatter."""
    layouts = {name: (Term(name, "I"),) for name in ("R1", "R2", "R3")}
    return run_kernel(reducer, column_values(values, layouts, key))


class TestOperatorMapper:
    def test_project(self):
        mapper = OperatorMapper("R", "I", PARTS, MapOperator.PROJECT)
        pairs, _ = run_mapper(mapper, [row(0, 12, 35)])
        assert [key for key, _ in pairs] == [1]

    def test_split(self):
        mapper = OperatorMapper("R", "I", PARTS, MapOperator.SPLIT)
        pairs, _ = run_mapper(mapper, [row(0, 12, 35)])
        assert [key for key, _ in pairs] == [1, 2, 3]

    def test_replicate_counts(self):
        mapper = OperatorMapper("R", "I", PARTS, MapOperator.REPLICATE)
        pairs, counters = run_mapper(mapper, [row(0, 12, 15)])
        assert [key for key, _ in pairs] == [1, 2, 3]
        assert counters.value("join", "replicated_intervals") == 1
        assert counters.value("join", "replicated_pairs") == 3

    def test_payload_tags_relation(self):
        mapper = OperatorMapper("R", "I", PARTS, MapOperator.PROJECT)
        pairs, _ = run_mapper(mapper, [row(7, 5, 6)])
        (key, (relation, record)) = pairs[0]
        assert relation == "R"
        assert record.rid == 7


class TestSplitMapper:
    def test_emits_one_pair_per_intersecting_partition(self):
        mapper = SplitMapper("R1", "I", PARTS)
        pairs, _ = run_mapper(mapper, [row(0, 8, 22), row(1, 35, 39)])
        keys = sorted(key for key, _ in pairs)
        assert keys == [0, 1, 2, 3]


class TestRouteMapper:
    def test_flagged_replicates_unflagged_projects(self):
        mapper = RouteMapper({"R1": "I"}, PARTS)
        flagged_record = ("R1", row(0, 12, 15), True)
        plain_record = ("R1", row(1, 12, 15), False)
        pairs, counters = run_mapper(mapper, [flagged_record, plain_record])
        flagged_keys = [k for k, (_, r) in pairs if r.rid == 0]
        plain_keys = [k for k, (_, r) in pairs if r.rid == 1]
        assert flagged_keys == [1, 2, 3]
        assert plain_keys == [1]
        assert counters.value("join", "replicated_pairs") == 3


class TestFlaggingReducer:
    @pytest.fixture
    def reducer(self):
        query = IntervalJoinQuery.parse(
            [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
        )
        return FlaggingReducer(
            query,
            ["R1", "R2", "R3"],
            {"R1": "I", "R2": "I", "R3": "I"},
            PARTS,
        )

    def test_flags_chain_prefix_crossing_right(self, reducer):
        # u ov v, v pokes out of p1's right edge and could meet a later
        # R3 partner -> both flagged; w ending inside p1 has no escape.
        values = [
            ("R1", row(0, 11, 14)),  # u
            ("R2", row(0, 12, 22)),  # v crosses right boundary (20)
        ]
        records, counters = run_reducer(reducer, 1, values)
        flags = {(rel, r.rid): f for rel, r, f in records}
        assert flags[("R1", 0)] is True
        assert flags[("R2", 0)] is True
        assert counters.value("join", "replicated_intervals") == 2

    def test_no_flag_without_rightward_escape(self, reducer):
        # A full consistent triple inside p1: its completion needs no
        # later partner (R3 is the order-maximal relation and present),
        # and nothing crosses right -> nothing flagged.
        values = [
            ("R1", row(0, 11, 14)),
            ("R2", row(0, 12, 16)),
            ("R3", row(0, 13, 18)),
        ]
        records, counters = run_reducer(reducer, 1, values)
        assert all(flag is False for _, _, flag in records)
        assert counters.value("join", "replicated_intervals") == 0

    def test_only_rows_starting_here_are_emitted(self, reducer):
        values = [
            ("R1", row(0, 5, 14)),   # starts in p0: context only
            ("R2", row(0, 12, 16)),  # starts in p1
        ]
        records, _ = run_reducer(reducer, 1, values)
        emitted = {(rel, r.rid) for rel, r, _ in records}
        assert emitted == {("R2", 0)}


class TestJoinReducer:
    @pytest.fixture
    def reducer(self):
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        return JoinReducer(query, {"R1": "I", "R2": "I"}, PARTS)

    def test_emits_owned_tuple(self, reducer):
        values = [
            ("R1", row(0, 8, 14)),   # replicated from p0
            ("R2", row(0, 12, 18)),  # local to p1 (the right-most)
        ]
        records, counters = run_reducer(reducer, 1, values)
        assert len(records) == 1
        assert counters.value("work", "comparisons") > 0

    def test_skips_tuples_owned_elsewhere(self, reducer):
        # Both rows start in p0; the pair is owned by p0, so reducer p1
        # must emit nothing even though it received both rows.
        values = [
            ("R1", row(0, 5, 14)),
            ("R2", row(0, 8, 18)),
        ]
        records, _ = run_reducer(reducer, 1, values)
        assert records == []
        records_p0, _ = run_reducer(reducer, 0, values)
        assert len(records_p0) == 1

    def test_no_cross_partition_false_positives(self, reducer):
        # A local R2 row with a replicated R1 row that does NOT overlap.
        values = [
            ("R1", row(0, 1, 3)),    # ends long before
            ("R2", row(0, 12, 18)),
        ]
        records, _ = run_reducer(reducer, 1, values)
        assert records == []
