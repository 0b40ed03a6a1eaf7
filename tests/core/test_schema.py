"""Unit tests for rows and relations."""

import copy
import dataclasses
import gc
import pickle
import threading

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


#: Columns whose rows keep their endpoint types: ints past 2**53 and
#: past int64, int and float endpoints mixed in one column and in one
#: interval, zero-length intervals, and a real-valued attribute.
MIXED_BLOCKS = [
    (
        {"I": ([0, 2**53 + 1, 1.5, 7], [0, 2**60 + 3, 2, 7.0]), "v": [1, 2.5, -3, 10**20]},
        [5, 2**62, 70, -1],
    ),
    ({"I": ([3.25, -1.0], [3.25, 0.5]), "v": [0.125, 4]}, [8, 9]),
    ({"I": (np.array([10, 11]), np.array([12, 2**40])), "v": np.array([6.0, 7.5])}, None),
]


def _row_path(blocks):
    """The rows of ``blocks`` as ``Row.make`` builds them one by one."""
    rows, count = [], 0
    for columns, rids in blocks:
        names = sorted(columns)
        values = [
            list(map(Interval, *(np.asarray(side, dtype=object).tolist() for side in column)))
            if isinstance(column, tuple) else np.asarray(column, dtype=object).tolist()
            for column in (columns[name] for name in names)
        ]
        size = len(values[0])
        rids = range(count, count + size) if rids is None else rids
        rows += [Row.make(rid, dict(zip(names, row))) for rid, row in zip(rids, zip(*values))]
        count += size
    return tuple(rows)


def _types(rows):
    return [
        tuple(
            (type(value.start), type(value.end)) if isinstance(value, Interval) else type(value)
            for _, value in row.data
        )
        for row in rows
    ]


@pytest.fixture
def rows_built(monkeypatch):
    """A counter of ``Row`` objects constructed."""
    built = [0]
    init = Row.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Row, "__init__", counted)
    return built


class TestLazyRows:
    """A relation is its columns; its rows are built on request, once,
    equal to the rows the one-by-one path builds."""

    @pytest.mark.parametrize(
        "blocks",
        [
            MIXED_BLOCKS,
            [({"I": ([0, 1, 1], [0, 2, 1])}, None)],  # ints, zero-length
            [({"I": ([0.5, 1.0], [0.5, 2.0])}, [3, 1])],  # floats
            [({"I": [Interval(0, 1), Interval(2.5, 2.5)]}, None)],  # Interval objects
            [({"v": [1, 2**53 + 1, 2.5], "w": np.array([1, 2, 3])}, None)],  # scalars only
        ],
        ids=["mixed", "ints", "floats", "intervals", "scalars"],
    )
    def test_rows_equal_the_row_path_with_the_same_types(self, blocks, rows_built):
        relation = Relation.from_column_blocks("R", blocks)
        assert rows_built[0] == 0
        want = _row_path(blocks)
        rows_built[0] = 0
        assert relation.rows == want
        assert _types(relation.rows) == _types(want)
        assert rows_built[0] == len(want) == len(relation)
        assert [row.rid for row in want] == relation.rid_objects().tolist()

    def test_columns_and_intervals_read_no_row(self, rows_built):
        want = [row.interval("I") for row in _row_path(MIXED_BLOCKS)]
        rows_built[0] = 0
        relation = Relation.from_column_blocks("R", MIXED_BLOCKS)
        columns = relation.columns("I")
        assert columns.starts.dtype == columns.ends.dtype == object  # past 2**53
        assert relation.intervals("I") == want
        assert relation.columns("v").starts.tolist() == [1.0, 2.5, -3.0, 1e20, 0.125, 4.0, 6.0, 7.5]
        assert relation.rid_column().dtype == np.int64
        assert rows_built[0] == 0

    @pytest.mark.parametrize(
        "blocks, error, message",
        [
            ([({"I": ([0.0, 1.0, float("nan")], [1.0, 2.0, 3.0])}, None)],
             InvalidIntervalError, "interval endpoints must not be NaN"),
            ([({"I": ([0, 5, 1], [1, 4, 0])}, None)],
             InvalidIntervalError, "interval end (4) precedes start (5)"),
            ([({"b": ([0, 3], [1, 2]), "a": ([0, 9], [1, 8])}, None)],
             InvalidIntervalError, "interval end (8) precedes start (9)"),
            ([({"b": ([5, 0], [4, 1]), "a": ([0, 9], [1, 8])}, None)],
             InvalidIntervalError, "interval end (4) precedes start (5)"),
            ([({"I": ([0, 1], [1, 2])}, [1, 1]), ({"I": ([3], [2])}, [2])],
             QueryError, "relation 'R': duplicate row id 1"),
            ([({"I": ([0, 3], [1, 2])}, [1, 1])],
             InvalidIntervalError, "interval end (2) precedes start (3)"),
            ([({"I": ([0], [1])}, [5]), ({"J": ([0], [1])}, [6])],
             QueryError, "relation 'R': row 6 schema ('J',) differs from ('I',)"),
            ([({"I": ([0, 10**30], [1, 10**29])}, None)],
             InvalidIntervalError,
             f"interval end ({10**29}) precedes start ({10**30})"),
            ([({"I": ([0, 2**53 + 1], [1, float(2**53)])}, None)],
             InvalidIntervalError,
             "interval end (9007199254740992.0) precedes start (9007199254740993)"),
            ([({"I": ([0, 1, 2], [1, 2, 3])}, [2**70, 1, 2**70])],
             QueryError, f"relation 'R': duplicate row id {2**70}"),
            ([({"I": ([0], [1])}, [1]), ({"I": ([0], [1])}, None)],
             QueryError, "relation 'R': duplicate row id 1"),
            ([({"I": ([0, 1], [1])}, None)],
             QueryError, "relation 'R': column 'I' does not hold one value for each of 2 rows"),
        ],
        ids=[
            "nan", "end-before-start", "first-attribute-at-the-row", "first-row-first",
            "duplicate-before-a-later-block", "interval-before-duplicate-in-its-block",
            "schema", "past-int64", "int-float-past-2**53", "object-rids",
            "duplicate-after-numbering", "length",
        ],
    )
    def test_errors_name_the_row_path_s_row(self, blocks, error, message):
        """Each message is the one building the rows one by one raised
        (``Relation.from_column_blocks`` before rows became a view)."""
        with pytest.raises(error) as raised:
            Relation.from_column_blocks("R", blocks)
        assert type(raised.value) is error and str(raised.value) == message

    @pytest.mark.parametrize(
        "clone",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    @pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
    def test_clones_equal_and_do_not_force_the_build(self, clone, built, rows_built):
        relation = Relation.from_column_blocks("R", MIXED_BLOCKS)
        if built:
            relation.rows
        rows_built[0] = 0
        twin = clone(relation)
        assert rows_built[0] == 0
        assert (twin.name, twin.attributes) == (relation.name, relation.attributes)
        assert len(twin) == len(relation)
        assert twin.rows == relation.rows
        assert _types(twin.rows) == _types(relation.rows)
        assert twin.rid_column().tolist() == relation.rid_column().tolist()

    def test_a_relation_given_rows_clones_them(self):
        relation = Relation("R", _row_path(MIXED_BLOCKS))
        for twin in (pickle.loads(pickle.dumps(relation)), copy.deepcopy(relation)):
            assert twin.rows == relation.rows
            assert twin.columns("I").ends.tolist() == relation.columns("I").ends.tolist()

    def test_an_alias_shares_the_one_build(self, rows_built):
        relation = Relation.from_column_blocks("R", MIXED_BLOCKS)
        twin = relation.alias("S")
        assert twin.rows is relation.rows
        assert rows_built[0] == len(relation)
        assert relation.alias("T").row_column() is twin.row_column()

    def test_concurrent_readers_build_the_rows_once(self, rows_built):
        relation = Relation.from_columns("R", {"I": (np.arange(5000.0), np.arange(5000.0) + 1)})
        barrier, seen = threading.Barrier(8), []

        def read():
            barrier.wait()
            seen.append(relation.rows)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert rows_built[0] == len(relation) == 5000
        assert len(seen) == 8 and all(rows is seen[0] for rows in seen)

    def test_an_array_handed_in_is_kept_read_only_not_copied(self):
        starts, ends = np.arange(4.0), np.arange(4.0) + 1
        relation = Relation.from_columns("R", {"I": (starts, ends)})
        columns = relation.columns("I")
        assert np.shares_memory(columns.starts, starts) and np.shares_memory(columns.ends, ends)
        assert not columns.starts.flags.writeable and starts.flags.writeable


def _endpoints(columns):
    return columns.starts.tolist(), columns.ends.tolist()
