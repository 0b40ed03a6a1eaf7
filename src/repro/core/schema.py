"""Relations and rows.

A :class:`Row` is an immutable record with a row id and named attribute
values; attribute values are :class:`~repro.intervals.interval.Interval`
instances or plain numbers (the latter are *real-valued attributes*, which
Section 9 of the paper embeds as length-0 intervals).  A :class:`Relation`
is a named, ordered, immutable collection of rows sharing an attribute
schema; it owns its endpoint columns (:meth:`Relation.columns`), which
every whole-relation reader reads instead of the rows.  Relations are
built column-first (:meth:`Relation.from_column_blocks`): every
generator and loader hands over whole columns, and the rows are built
from them in one pass.

Row ids are unique within a relation, so an output tuple is fully
identified by the rids of its member rows in query relation order — the
representation the test suite uses to compare algorithm output against the
reference join.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.columnar.batch import object_column
from repro.errors import QueryError
from repro.gc_pause import collector_paused
from repro.intervals.interval import Interval, point
from repro.intervals.sweep import SortedColumns

__all__ = [
    "Row",
    "Relation",
    "DEFAULT_ATTRIBUTE",
    "AttributeValue",
    "Column",
    "record_columns",
]

#: The attribute name used by single-attribute relations built from bare
#: interval lists (the paper's Sections 4-8 setting).
DEFAULT_ATTRIBUTE = "I"

AttributeValue = Union[Interval, float, int]

#: One attribute of a block of rows, as :meth:`Relation.from_columns`
#: takes it: a ``(starts, ends)`` tuple for an interval attribute, or
#: any other sequence (a list, an array) of the values themselves.
Column = Union[Tuple[Sequence[Any], Sequence[Any]], Sequence[AttributeValue]]


@dataclass(frozen=True)
class Row:
    """One immutable tuple of a relation.

    Attributes
    ----------
    rid:
        Row id, unique within the owning relation.
    data:
        Attribute name/value pairs, stored as a sorted tuple so rows are
        hashable and cheaply comparable.
    """

    # Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): a
    # relation holds one row per record, and a slotted row has no
    # per-instance ``__dict__``.
    __slots__ = ("rid", "data")

    rid: int
    data: Tuple[Tuple[str, AttributeValue], ...]

    def __reduce__(self):
        # A frozen slotted instance cannot be restored through
        # ``setattr``: pickle and copy rebuild it through the constructor.
        return (type(self), (self.rid, self.data))

    @classmethod
    def make(cls, rid: int, values: Mapping[str, AttributeValue]) -> "Row":
        """Build a row from a mapping of attribute values."""
        return cls(rid, tuple(sorted(values.items())))

    # ------------------------------------------------------------------
    def value(self, attribute: str) -> AttributeValue:
        """The raw value of ``attribute``."""
        for name, value in self.data:
            if name == attribute:
                return value
        raise QueryError(f"row {self.rid} has no attribute {attribute!r}")

    def interval(self, attribute: str) -> Interval:
        """The value of ``attribute`` as an interval.

        Real-valued attributes are returned as the degenerate point
        interval ``[v, v]`` (the Section 9 embedding).
        """
        value = self.value(attribute)
        if isinstance(value, Interval):
            return value
        return point(float(value))

    @property
    def attributes(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.data)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{name}={value}" for name, value in self.data)
        return f"Row#{self.rid}({body})"


class Relation:
    """A named, ordered collection of rows with a fixed attribute schema.
    ``rows`` is a tuple: a mutable list would silently invalidate the
    columns memoised from it (:meth:`columns`, :meth:`row_column`)."""

    def __init__(self, name: str, rows: Iterable[Row]):
        rows = tuple(rows)
        schema = rows[0].attributes if rows else ()
        seen_rids = set()
        for row in rows:
            if row.attributes != schema:
                raise QueryError(
                    f"relation {name!r}: row {row.rid} schema "
                    f"{row.attributes} differs from {schema}"
                )
            if row.rid in seen_rids:
                raise QueryError(f"relation {name!r}: duplicate row id {row.rid}")
            seen_rids.add(row.rid)
        self._adopt(name, rows, schema)

    def _adopt(
        self, name: str, rows: Tuple[Row, ...], attributes: Tuple[str, ...]
    ) -> None:
        self.name = name
        self.rows: Tuple[Row, ...] = rows
        self.attributes: Tuple[str, ...] = attributes
        #: attribute -> its endpoint columns, ``None`` -> the rows as an
        #: object column; each built on first use, shared by aliases.
        self._memo: Dict[Optional[str], Any] = {}

    # ------------------------------------------------------------------
    # Column-first constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Mapping[str, Column],
        rids: Optional[Sequence[int]] = None,
    ) -> "Relation":
        """A relation from one block of columns (see
        :meth:`from_column_blocks`); ``rids`` default to positions."""
        return cls.from_column_blocks(name, [(columns, rids)])

    @classmethod
    def from_column_blocks(
        cls,
        name: str,
        blocks: Iterable[Tuple[Mapping[str, Column], Optional[Sequence[int]]]],
    ) -> "Relation":
        """The one bulk builder: a relation from consecutive blocks of
        ``(columns, rids)``, each block's rows built before the next
        block is drawn, so a loader can stream.

        ``columns`` maps each attribute to a :data:`Column`; an interval
        attribute's ``Interval(start, end)`` is built (and so checked)
        here, other values are taken as they are.  ``rids`` of ``None``
        number the block's rows on from the previous block's.  Each
        ``Row`` is built as ``Row(rid, data)`` with ``data`` in
        :meth:`Row.make`'s order; the schema is uniform by construction,
        so only a block naming other attributes than the first is
        refused, and rids are checked for uniqueness as a column (a set
        of them, updated a block at a time).  Rows and intervals are
        acyclic, so the cyclic collector is paused throughout.

        :meth:`columns` is not seeded from the endpoints in hand: a
        caller that never queries the relation (a generate-then-save)
        would hold the arrays for nothing, and a query builds them from
        the rows in well under a tenth of the build's time.
        """
        rows: List[Row] = []
        rids: set = set()
        schema: Optional[Tuple[str, ...]] = None
        with collector_paused():
            for columns, block_rids in blocks:
                names = tuple(sorted(columns))
                values = [_as_list(columns[a]) for a in names]
                if block_rids is None:
                    count = _length(values[0]) if names else 0
                    block_rids = range(len(rows), len(rows) + count)
                else:
                    block_rids = _as_list(block_rids)
                if not block_rids:
                    continue
                if schema is None:
                    schema = names
                elif names != schema:
                    raise QueryError(
                        f"relation {name!r}: row {block_rids[0]} schema "
                        f"{names} differs from {schema}"
                    )
                for index, (attribute, column) in enumerate(zip(names, values)):
                    sides = column if isinstance(column, tuple) else (column,)
                    if {len(side) for side in sides} != {len(block_rids)}:
                        raise QueryError(
                            f"relation {name!r}: column {attribute!r} does "
                            f"not hold one value for each of {len(block_rids)} rows"
                        )
                    if isinstance(column, tuple):
                        column = map(Interval, *column)
                    values[index] = zip(repeat(attribute), column)
                data = zip(*values) if values else repeat((), len(block_rids))
                rows.extend(map(Row, block_rids, data))
                distinct = len(rids)
                rids.update(block_rids)
                if len(rids) - distinct != len(block_rids):
                    _raise_duplicate(name, rows)
        relation = cls.__new__(cls)
        relation._adopt(name, tuple(rows), schema or ())
        return relation

    @classmethod
    def of_intervals(
        cls,
        name: str,
        intervals: Iterable[Interval],
        attribute: str = DEFAULT_ATTRIBUTE,
    ) -> "Relation":
        """A single-interval-attribute relation from bare intervals."""
        return cls.from_columns(name, {attribute: list(intervals)})

    @classmethod
    def of_records(
        cls, name: str, records: Iterable[Mapping[str, AttributeValue]]
    ) -> "Relation":
        """A relation from attribute mappings; rids assigned by position."""
        records = list(records)
        return cls.from_columns(name, record_columns(name, records))

    def alias(self, name: str) -> "Relation":
        """The same rows under another relation name (for self-joins),
        sharing the row tuple and every column memoised before or after."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.name = name
        return twin

    # ------------------------------------------------------------------
    def intervals(self, attribute: str = DEFAULT_ATTRIBUTE) -> List[Interval]:
        """All values of one attribute, as intervals, in row order."""
        return [row.interval(attribute) for row in self.rows]

    def columns(self, attribute: str) -> SortedColumns:
        """One attribute's endpoint columns in row order (``object``
        where an endpoint is not float64-exact), built from the rows on
        first use, kept for the life of the relation and read-only."""
        columns = self._memo.get(attribute)
        if columns is None:
            columns = SortedColumns.of_intervals(self.intervals(attribute))
            columns.starts.flags.writeable = columns.ends.flags.writeable = False
            self._memo[attribute] = columns
        return columns

    def row_column(self) -> np.ndarray:
        """The rows as a read-only object column, to ``take`` from."""
        column = self._memo.get(None)
        if column is None:
            column = object_column(self.rows)
            column.flags.writeable = False
            self._memo[None] = column
        return column

    def row_by_id(self, rid: int) -> Row:
        for row in self.rows:
            if row.rid == rid:
                return row
        raise QueryError(f"relation {self.name!r} has no row id {rid}")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.name!r}, {len(self.rows)} rows)"


def record_columns(
    name: str,
    records: Sequence[Mapping[str, Any]],
    rids: Optional[Sequence[int]] = None,
) -> Dict[str, List[Any]]:
    """The columns of ``records`` (attribute mappings, one per row),
    refusing, as :class:`Relation` does, a record whose attributes
    differ from the first's."""
    if not records:
        return {}
    names = sorted(records[0])
    try:
        columns = {a: [record[a] for record in records] for a in names}
        uniform = set(map(len, records)) == {len(names)}
    except KeyError:
        uniform = False
    if not uniform:
        rids = range(len(records)) if rids is None else rids
        for rid, record in zip(rids, records):
            if sorted(record) != names:
                raise QueryError(
                    f"relation {name!r}: row {rid} schema "
                    f"{tuple(sorted(record))} differs from {tuple(names)}"
                )
    return columns


def _as_list(column: Any) -> Any:
    """A column as a list of Python values (an array's scalars become
    Python numbers, as ``float()`` would make them); a ``(starts, ends)``
    pair stays a pair, of lists."""
    if isinstance(column, tuple):
        return tuple(_as_list(side) for side in column)
    if isinstance(column, np.ndarray):
        return column.tolist()
    return column if isinstance(column, list) else list(column)


def _raise_duplicate(name: str, rows: Sequence[Row]) -> None:
    """Refuse the first row whose rid repeats an earlier row's."""
    seen = set()
    for row in rows:
        if row.rid in seen:
            raise QueryError(f"relation {name!r}: duplicate row id {row.rid}")
        seen.add(row.rid)


def _length(column: Any) -> int:
    return len(column[0] if isinstance(column, tuple) else column)
