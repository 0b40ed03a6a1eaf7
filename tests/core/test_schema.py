"""Unit tests for rows and relations."""

import copy
import dataclasses
import gc
import pickle

import numpy as np
import pytest

from repro.errors import InvalidIntervalError, QueryError
from repro.core.schema import DEFAULT_ATTRIBUTE, Relation, Row
from repro.intervals.interval import Interval


class TestRow:
    def test_make_and_access(self):
        row = Row.make(3, {"I": Interval(0, 5), "A": 2.5})
        assert row.rid == 3
        assert row.value("I") == Interval(0, 5)
        assert row.value("A") == 2.5

    def test_interval_accessor_wraps_scalars(self):
        row = Row.make(0, {"A": 7})
        assert row.interval("A") == Interval(7.0, 7.0)

    def test_interval_accessor_passthrough(self):
        row = Row.make(0, {"I": Interval(1, 2)})
        assert row.interval("I") == Interval(1, 2)

    def test_missing_attribute(self):
        row = Row.make(0, {"I": Interval(1, 2)})
        with pytest.raises(QueryError):
            row.value("missing")

    def test_hashable_and_equal(self):
        a = Row.make(1, {"I": Interval(0, 1)})
        b = Row.make(1, {"I": Interval(0, 1)})
        assert a == b
        assert len({a, b}) == 1

    def test_attributes_sorted(self):
        row = Row.make(0, {"z": 1, "a": 2})
        assert row.attributes == ("a", "z")

    def test_slotted_and_frozen(self):
        row = Row.make(1, {"I": Interval(0, 1)})
        assert not hasattr(row, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.rid = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.extra = 0

    @pytest.mark.parametrize(
        "clone",
        [lambda row: pickle.loads(pickle.dumps(row)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_clones_equal_and_hash_alike(self, clone):
        row = Row.make(4, {"I": Interval(0, 1), "A": 2.5})
        twin = clone(row)
        assert type(twin) is Row
        assert twin == row and hash(twin) == hash(row)
        assert twin.interval("I") == Interval(0, 1)
        assert twin != Row.make(5, {"I": Interval(0, 1), "A": 2.5})


class TestRelation:
    def test_of_intervals(self):
        rel = Relation.of_intervals("R", [Interval(0, 1), Interval(2, 3)])
        assert len(rel) == 2
        assert rel.attributes == (DEFAULT_ATTRIBUTE,)
        assert [row.rid for row in rel] == [0, 1]

    def test_of_records(self):
        rel = Relation.of_records(
            "R", [{"x": Interval(0, 1), "v": 5}, {"x": Interval(2, 3), "v": 7}]
        )
        assert rel.attributes == ("v", "x")
        assert rel.rows[1].value("v") == 7

    def test_intervals_accessor(self):
        rel = Relation.of_intervals("R", [Interval(0, 1)])
        assert rel.intervals() == [Interval(0, 1)]

    def test_schema_mismatch_rejected(self):
        rows = [
            Row.make(0, {"I": Interval(0, 1)}),
            Row.make(1, {"J": Interval(0, 1)}),
        ]
        with pytest.raises(QueryError):
            Relation("R", rows)

    def test_duplicate_rids_rejected(self):
        rows = [
            Row.make(0, {"I": Interval(0, 1)}),
            Row.make(0, {"I": Interval(2, 3)}),
        ]
        with pytest.raises(QueryError):
            Relation("R", rows)

    def test_empty_relation(self):
        rel = Relation("R", [])
        assert len(rel) == 0
        assert rel.attributes == ()

    def test_alias_shares_rows(self):
        rel = Relation.of_intervals("R", [Interval(0, 1)])
        other = rel.alias("S")
        assert other.name == "S"
        assert other.rows == rel.rows

    def test_rows_are_immutable(self):
        """The relation memoises columns of its rows: a row list that
        could change under them would join stale endpoints."""
        rel = Relation.of_intervals("R", [Interval(0, 1)])
        assert isinstance(rel.rows, tuple)
        with pytest.raises(AttributeError):
            rel.rows.append(Row.make(9, {"I": Interval(2, 3)}))
        with pytest.raises(TypeError):
            rel.rows[0] = Row.make(9, {"I": Interval(2, 3)})
        columns = rel.columns("I")
        for column in (columns.starts, columns.ends, rel.row_column()):
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_columns_are_built_once(self):
        rel = Relation.of_records("R", [{"x": Interval(0, 1), "v": 5}])
        assert rel.columns("x") is rel.columns("x")
        assert rel.columns("x") is not rel.columns("v")
        assert rel.row_column() is rel.row_column()
        assert _endpoints(rel.columns("v")) == ([5.0], [5.0])
        with pytest.raises(QueryError):
            rel.columns("missing")

    def test_alias_shares_the_columns(self):
        """Whichever of the two builds a column, both hold that one
        object — a packet-train self-join aliases one base three times
        and encodes it once."""
        rel = Relation.of_intervals("R", [Interval(0, 1), Interval(2, 3)])
        before = rel.columns("I")
        other = rel.alias("S")
        assert other.rows is rel.rows
        assert other.columns("I") is before
        assert other.row_column() is rel.row_column()
        again = other.alias("T")
        assert again.name == "T" and rel.name == "R"
        assert again.row_column() is rel.row_column()

    def test_alias_does_not_revalidate(self):
        class Counting(Relation):
            built = 0

            def __init__(self, name, rows):
                type(self).built += 1
                super().__init__(name, rows)

        rel = Counting("R", [Row.make(0, {"I": Interval(0, 1)})])
        other = rel.alias("S")
        assert type(other) is Counting and Counting.built == 1

    def test_empty_relation_has_empty_float64_columns(self):
        columns = Relation("R", []).columns("I")
        assert columns.starts.dtype == columns.ends.dtype == np.float64
        assert len(columns.starts) == len(columns.ends) == 0
        assert len(Relation("R", []).row_column()) == 0

    def test_row_by_id(self):
        rel = Relation.of_intervals("R", [Interval(0, 1), Interval(2, 3)])
        assert rel.row_by_id(1).interval("I") == Interval(2, 3)
        with pytest.raises(QueryError):
            rel.row_by_id(99)


class TestFromColumns:
    """The column-first builder; its parity with ``Row.make`` over
    generated inputs is in tests/properties/test_relation_building.py."""

    def test_pairs_values_and_rids(self):
        rel = Relation.from_columns(
            "R", {"x": ([0, 2.5], np.array([1.0, 4.0])), "v": np.array([5, 7])}, [9, 3]
        )
        assert rel.rows == (
            Row.make(9, {"x": Interval(0, 1.0), "v": 5}),
            Row.make(3, {"x": Interval(2.5, 4.0), "v": 7}),
        )
        assert rel.attributes == ("v", "x")
        assert type(rel.rows[0].value("v")) is int

    def test_blocks_number_on_and_pause_the_collector(self):
        enabled = []

        def blocks():
            for lo in (0, 2):
                enabled.append(gc.isenabled())
                yield {"I": ([lo, lo + 1], [lo + 1, lo + 2])}, None

        rel = Relation.from_column_blocks("R", blocks())
        assert [row.rid for row in rel] == [0, 1, 2, 3]
        assert enabled == [False, False] and gc.isenabled()

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([({"I": ([0, 1], [1, 2])}, [4, 4])], "duplicate row id 4"),
            ([({"I": ([0], [1])}, None), ({"I": ([0], [1])}, [0])], "duplicate row id 0"),
            ([({"I": ([0], [1])}, [5]), ({"J": ([0], [1])}, [6])], "row 6 schema"),
            ([({"I": ([0, 1], [1])}, None)], "one value for each of"),
            ([({"I": ([0], [1]), "v": [1, 2]}, None)], "one value for each of"),
        ],
        ids=["duplicate", "duplicate-across-blocks", "schema", "pair", "values"],
    )
    def test_refusals(self, blocks, message):
        with pytest.raises(QueryError, match=message):
            Relation.from_column_blocks("R", blocks)

    @pytest.mark.parametrize("start, end", [(2, 1), (float("nan"), 1)])
    def test_every_interval_is_checked(self, start, end):
        with pytest.raises(InvalidIntervalError):
            Relation.from_columns("R", {"I": ([0, start], [1, end])})

    def test_of_records_refuses_a_differing_record(self):
        with pytest.raises(QueryError, match="row 1 schema"):
            Relation.of_records("R", [{"I": Interval(0, 1)}, {"J": Interval(0, 1)}])


def _endpoints(columns):
    return columns.starts.tolist(), columns.ends.tolist()
