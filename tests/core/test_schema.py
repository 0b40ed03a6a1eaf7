"""Unit tests for rows and relations."""

import numpy as np
import pytest

from repro.errors import QueryError
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


def _endpoints(columns):
    return columns.starts.tolist(), columns.ends.tolist()
