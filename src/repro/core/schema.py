"""Relations and rows.

A :class:`Row` is an immutable record with a row id and named attribute
values; attribute values are :class:`~repro.intervals.interval.Interval`
instances or plain numbers (the latter are *real-valued attributes*, which
Section 9 of the paper embeds as length-0 intervals).  A :class:`Relation`
is a named, ordered, immutable collection of rows sharing an attribute
schema; it owns its endpoint columns (:meth:`Relation.columns`), which
every whole-relation reader reads instead of the rows.

Row ids are unique within a relation, so an output tuple is fully
identified by the rids of its member rows in query relation order — the
representation the test suite uses to compare algorithm output against the
reference join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.columnar.batch import object_column
from repro.errors import QueryError
from repro.intervals.interval import Interval, point
from repro.intervals.sweep import SortedColumns

__all__ = ["Row", "Relation", "DEFAULT_ATTRIBUTE", "AttributeValue"]

#: The attribute name used by single-attribute relations built from bare
#: interval lists (the paper's Sections 4-8 setting).
DEFAULT_ATTRIBUTE = "I"

AttributeValue = Union[Interval, float, int]


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

    rid: int
    data: Tuple[Tuple[str, AttributeValue], ...]

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
        self.name = name
        self.rows: Tuple[Row, ...] = tuple(rows)
        #: attribute -> its endpoint columns, ``None`` -> the rows as an
        #: object column; each built on first use, shared by aliases.
        self._memo: Dict[Optional[str], Any] = {}
        if self.rows:
            schema = self.rows[0].attributes
            seen_rids = set()
            for row in self.rows:
                if row.attributes != schema:
                    raise QueryError(
                        f"relation {name!r}: row {row.rid} schema "
                        f"{row.attributes} differs from {schema}"
                    )
                if row.rid in seen_rids:
                    raise QueryError(
                        f"relation {name!r}: duplicate row id {row.rid}"
                    )
                seen_rids.add(row.rid)
            self.attributes: Tuple[str, ...] = schema
        else:
            self.attributes = ()

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def of_intervals(
        cls,
        name: str,
        intervals: Iterable[Interval],
        attribute: str = DEFAULT_ATTRIBUTE,
    ) -> "Relation":
        """A single-interval-attribute relation from bare intervals."""
        rows = [
            Row.make(rid, {attribute: interval})
            for rid, interval in enumerate(intervals)
        ]
        return cls(name, rows)

    @classmethod
    def of_records(
        cls, name: str, records: Iterable[Mapping[str, AttributeValue]]
    ) -> "Relation":
        """A relation from attribute mappings; rids assigned by position."""
        rows = [Row.make(rid, record) for rid, record in enumerate(records)]
        return cls(name, rows)

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
