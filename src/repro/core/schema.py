"""Relations and rows.

A :class:`Row` is an immutable record with a row id and named attribute
values; attribute values are :class:`~repro.intervals.interval.Interval`
instances or plain numbers (the latter are *real-valued attributes*, which
Section 9 of the paper embeds as length-0 intervals).  A :class:`Relation`
is a named, ordered, immutable collection of rows sharing an attribute
schema, held as columns: a rid column and one column per attribute — an
interval attribute a ``(starts, ends)`` pair.  Every whole-relation
reader reads those (:meth:`Relation.columns`, :meth:`Relation.rid_column`,
:meth:`Relation.rid_objects`); the ``Row`` objects are a view, built on
the first read of :attr:`Relation.rows`, once.  Relations are built
column-first (:meth:`Relation.from_column_blocks`): every generator and
loader hands over whole columns, which are checked whole.

Row ids are unique within a relation, so an output tuple is fully
identified by the rids of its member rows in query relation order — the
representation the test suite uses to compare algorithm output against the
reference join.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Any,
    Callable,
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

from repro.columnar.batch import endpoint_column, object_column
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

#: The largest magnitude up to which every int64 is a float64.
_EXACT = 2**53


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
    # relation's rows, once built, are one per record, and a slotted row
    # has no per-instance ``__dict__``.
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


#: One attribute as a relation stores it: ``(starts, ends)`` for an
#: interval attribute, ``(values,)`` for any other.
Stored = Tuple[np.ndarray, ...]


class _Store:
    """What a relation and its aliases share: the columns, the rows when
    they were handed in instead, and what is built from either on
    request — once, under the lock."""

    __slots__ = ("length", "rids", "data", "given", "built", "lock")

    def __init__(
        self,
        length: int,
        rids: Optional[np.ndarray],
        data: Optional[Dict[str, Stored]],
        given: Optional[Tuple[Row, ...]] = None,
    ) -> None:
        for column in _arrays(rids, data):
            column.flags.writeable = False
        self.length = length
        #: the rid column; ``None`` when the rids are the positions.
        self.rids = rids
        #: attribute -> its stored column; ``None`` until rows handed in
        #: are first read as columns.
        self.data = data
        self.given = given
        self.built: Dict[Any, Any] = {}
        self.lock = threading.RLock()

    def memo(self, key: Any, build: Callable[[], Any]) -> Any:
        value = self.built.get(key)
        if value is None:
            with self.lock:
                value = self.built.get(key)
                if value is None:
                    value = self.built[key] = build()
        return value

    # A store pickles (and deep-copies) as its columns — or, when rows
    # were handed in, as those rows — never as what was built on request.
    def __getstate__(self):
        return self.length, self.rids, self.data, self.given

    def __setstate__(self, state) -> None:
        self.__init__(*state)


class Relation(SequenceABC):
    """A named, ordered collection of rows with a fixed attribute schema,
    held as columns (see the module docstring).

    As a sequence it *is* its rows: ``len`` reads the columns, an item
    or an iteration the rows, which :attr:`rows` builds on first use.
    A relation given rows (``Relation(name, rows)``) keeps them as they
    are, and reads them as columns on first use instead.
    """

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
        self._adopt(name, _Store(len(rows), None, None, rows), schema)

    def _adopt(self, name: str, store: _Store, attributes: Tuple[str, ...]) -> None:
        self.name = name
        self.attributes: Tuple[str, ...] = attributes
        self._store = store

    @classmethod
    def _of_rows(cls, name: str, rows: Tuple[Row, ...]) -> "Relation":
        """A relation of ``rows`` as they are, unchecked: rows may repeat."""
        relation = cls.__new__(cls)
        schema = rows[0].attributes if rows else ()
        relation._adopt(name, _Store(len(rows), None, None, rows), schema)
        return relation

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
        ``(columns, rids)``, each block checked before the next is drawn,
        so a loader can stream.

        ``columns`` maps each attribute to a :data:`Column`; a column of
        ``Interval`` objects is taken as the pair of their endpoints.
        ``rids`` of ``None`` number the block's rows on from the previous
        block's.  Each column is stored as int64 where every value is an
        int that fits, float64 where every value is a float, else as an
        ``object`` column of the values themselves, so the rows built
        from it hold each value's own type.  An array handed in is kept,
        not copied: it is the relation's from then on.

        A block is checked whole — its schema against the first block's,
        one value per row in every column, every interval (as
        ``Interval`` would check it) — and the rids of all blocks for
        uniqueness; the error names the first bad row with the message
        building the rows one by one would raise.  No ``Row`` is built
        (see :attr:`rows`).  The cyclic collector is paused throughout.
        """
        schema: Optional[Tuple[str, ...]] = None
        parts: List[List[Stored]] = []
        rid_parts: List[Union[range, np.ndarray]] = []
        count = 0
        with collector_paused():
            for columns, block_rids in blocks:
                names = tuple(sorted(columns))
                stored = [_block_column(columns[a]) for a in names]
                if block_rids is None:
                    size = len(stored[0][0]) if names else 0
                    block_rids = range(count, count + size)
                else:
                    block_rids = _stored(block_rids)
                size = len(block_rids)
                if not size:
                    continue
                if schema is None:
                    schema = names
                elif names != schema:
                    _refuse_duplicates(name, _joined(rid_parts))
                    raise QueryError(
                        f"relation {name!r}: row {_first(block_rids)} schema "
                        f"{names} differs from {schema}"
                    )
                for attribute, sides in zip(names, stored):
                    if {len(side) for side in sides} != {size}:
                        _refuse_duplicates(name, _joined(rid_parts))
                        raise QueryError(
                            f"relation {name!r}: column {attribute!r} does "
                            f"not hold one value for each of {size} rows"
                        )
                bad = [_first_invalid(*sides) for sides in stored if len(sides) == 2]
                bad = [row for row in bad if row is not None]
                if bad:
                    _refuse_duplicates(name, _joined(rid_parts))
                    _raise_invalid(stored, min(bad))
                parts.append(stored)
                rid_parts.append(block_rids)
                count += size
            rids = _joined(rid_parts)
            _refuse_duplicates(name, rids)
            if rids is not None and rids.dtype != object and np.array_equal(rids, np.arange(count)):
                rids = None  # the positions: kept as such
            data = {
                attribute: _merge([block[index] for block in parts])
                for index, attribute in enumerate(schema or ())
            }
        relation = cls.__new__(cls)
        relation._adopt(name, _Store(count, rids, data), schema or ())
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
        sharing the columns and everything built from them, before or
        after — the rows included."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.name = name
        return twin

    # ------------------------------------------------------------------
    # The columns
    # ------------------------------------------------------------------
    def _data(self) -> Dict[str, Stored]:
        """The stored columns — of the rows handed in, read on first use."""
        store = self._store
        if store.data is None:
            with store.lock:
                if store.data is None:
                    data = _columns_of_rows(store.given, self.attributes)
                    for column in _arrays(None, data):
                        column.flags.writeable = False
                    store.data = data
        return store.data

    def stored(self, attribute: str) -> Stored:
        """One attribute's column as the relation keeps it —
        ``(starts, ends)`` for an interval attribute, ``(values,)`` for
        another — read-only, each ``tolist()`` giving the values back
        with their own types."""
        data = self._data()
        if attribute not in data:
            if not len(self):
                return np.empty(0), np.empty(0)
            raise QueryError(
                f"row {_first(self.rid_objects())} has no attribute {attribute!r}"
            )
        return data[attribute]

    def intervals(self, attribute: str = DEFAULT_ATTRIBUTE) -> List[Interval]:
        """All values of one attribute, as intervals, in row order (a
        real value as the point interval ``[v, v]``, as
        :meth:`Row.interval` reads it)."""
        stored = self.stored(attribute)
        if len(stored) == 2:
            return list(map(Interval, stored[0].tolist(), stored[1].tolist()))
        return [
            value if isinstance(value, Interval) else point(float(value))
            for value in stored[0].tolist()
        ]

    def columns(self, attribute: str) -> SortedColumns:
        """One attribute's endpoint columns in row order — float64, or
        ``object`` where an endpoint is not float64-exact — built from
        the stored columns on first use, kept for the life of the
        relation and read-only."""

        def build() -> SortedColumns:
            stored = self.stored(attribute)
            if len(stored) == 2:
                columns = SortedColumns(*map(_endpoints, stored))
            else:
                columns = SortedColumns.of_intervals(self.intervals(attribute))
            columns.starts.flags.writeable = columns.ends.flags.writeable = False
            return columns

        return self._store.memo(("columns", attribute), build)

    def rid_column(self) -> np.ndarray:
        """The rids as a read-only int64 column — ``object`` where a rid
        does not fit one, never float, in which distinct rids could
        compare equal."""

        def build() -> np.ndarray:
            store = self._store
            if store.given is not None:
                column = _stored([row.rid for row in store.given])
            elif store.rids is None:
                column = np.arange(len(self), dtype=np.int64)
            else:
                column = store.rids
            if column.dtype == np.float64:
                column = object_column(column.tolist())
            column.flags.writeable = False
            return column

        return self._store.memo("rid_column", build)

    def rid_objects(self) -> np.ndarray:
        """The rids themselves as a read-only ``object`` column: one
        shared rid object per row, which the rows, once built, hold too."""

        def build() -> np.ndarray:
            store = self._store
            if store.given is not None:
                column = object_column([row.rid for row in store.given])
            else:
                column = object_column(self.rid_column().tolist())
            column.flags.writeable = False
            return column

        return self._store.memo("rid_objects", build)

    # ------------------------------------------------------------------
    # The rows, on request
    # ------------------------------------------------------------------
    @property
    def rows(self) -> Tuple[Row, ...]:
        """The rows, in order, as a tuple: handed in, or built from the
        columns on first access — under the store's lock, so once for a
        relation and its aliases, and with the cyclic collector paused
        (rows and intervals are acyclic)."""
        store = self._store
        if store.given is not None:
            return store.given
        return store.memo("rows", self._build_rows)

    def _build_rows(self) -> Tuple[Row, ...]:
        with collector_paused():
            data = self._data()
            values = []
            for attribute in self.attributes:
                stored = data[attribute]
                if len(stored) == 2:
                    column = map(Interval, stored[0].tolist(), stored[1].tolist())
                else:
                    column = stored[0].tolist()
                values.append(zip(repeat(attribute), column))
            rows = zip(*values) if values else repeat((), len(self))
            return tuple(map(Row, self.rid_objects().tolist(), rows))

    def row_column(self) -> np.ndarray:
        """The rows as a read-only object column, to ``take`` from."""

        def build() -> np.ndarray:
            column = object_column(self.rows)
            column.flags.writeable = False
            return column

        return self._store.memo("row_column", build)

    def row_by_id(self, rid: int) -> Row:
        try:
            return self.rows[self.rid_objects().tolist().index(rid)]
        except ValueError:
            raise QueryError(f"relation {self.name!r} has no row id {rid}") from None

    def __len__(self) -> int:
        return self._store.length

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.name!r}, {len(self)} rows)"


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


# ----------------------------------------------------------------------
# Stored columns
# ----------------------------------------------------------------------


def _stored(values: Any) -> np.ndarray:
    """One column as a relation stores it: int64 when every value is an
    int that fits, float64 when every value is a float, else an
    ``object`` column of the values themselves — so that ``tolist()``
    gives each value back with its own type, as it was handed in (an
    array's scalars as the Python numbers ``tolist()`` makes them)."""
    if isinstance(values, np.ndarray):
        # A view: the relation marks its columns read-only, not the
        # caller's array.
        if values.dtype.kind == "f":
            return values.astype(np.float64, copy=False).view()
        if values.dtype.kind == "i":
            return values.astype(np.int64, copy=False).view()
        values = values.tolist()
    elif not isinstance(values, list):
        values = list(values)
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return object_column(values)


def _block_column(column: Column) -> Stored:
    """A block's column as stored: a pair stays a pair, and so does a
    column of ``Interval`` objects, as their endpoints."""
    if isinstance(column, tuple):
        return _stored(column[0]), _stored(column[1])
    if not isinstance(column, (list, np.ndarray)):
        column = list(column)
    if len(column) and all(type(value) is Interval for value in column):
        return (
            _stored([value.start for value in column]),
            _stored([value.end for value in column]),
        )
    return (_stored(column),)


def _concat(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Stored columns end to end, stored by the same rule: ``object``
    unless they all share their dtype."""
    if len(columns) == 1:
        return columns[0]
    if len({column.dtype for column in columns}) == 1:
        return np.concatenate(columns)
    return np.concatenate([column.astype(object) for column in columns])


def _merge(blocks: Sequence[Stored]) -> Stored:
    """One attribute's blocks end to end: a pair if every block is one,
    else the values, a pair's as ``Interval`` objects."""
    if all(len(block) == 2 for block in blocks):
        return _concat([block[0] for block in blocks]), _concat([block[1] for block in blocks])
    return (_concat([
        object_column(list(map(Interval, block[0].tolist(), block[1].tolist())))
        if len(block) == 2 else block[0]
        for block in blocks
    ]),)


def _columns_of_rows(rows: Sequence[Row], attributes: Sequence[str]) -> Dict[str, Stored]:
    """The stored columns of rows of one schema."""
    return {
        attribute: _block_column([row.data[index][1] for row in rows])
        for index, attribute in enumerate(attributes)
    }


def _endpoints(side: np.ndarray) -> np.ndarray:
    """A stored endpoint column as :func:`endpoint_column` makes it of
    the same values: float64 when every one survives the conversion,
    else ``object``."""
    if side.dtype == np.float64:
        return side
    if side.dtype == np.int64 and (
        not len(side) or (side.min() >= -_EXACT and side.max() <= _EXACT)
    ):
        return side.astype(np.float64)
    return endpoint_column(side.tolist())


def _arrays(rids: Optional[np.ndarray], data: Optional[Dict[str, Stored]]) -> List[np.ndarray]:
    """Every stored column of a relation."""
    arrays = [side for sides in (data or {}).values() for side in sides]
    return arrays if rids is None else [rids, *arrays]


def _first(column: Union[range, np.ndarray]) -> Any:
    """A column's first value, as a Python value."""
    return column[0] if isinstance(column, range) else column[:1].tolist()[0]


def _first_invalid(starts: np.ndarray, ends: np.ndarray) -> Optional[int]:
    """The first row whose ``Interval(start, end)`` would be refused:
    compared as columns where the comparison is exact, else built one
    by one."""
    comparable = [
        side.dtype == np.float64
        or (side.dtype == np.int64 and side.min() >= -_EXACT and side.max() <= _EXACT)
        for side in (starts, ends)
    ]
    if (starts.dtype == ends.dtype == np.int64) or all(comparable):
        bad = ends < starts
        for side in (starts, ends):
            if side.dtype == np.float64:
                bad |= np.isnan(side)
        hits = np.flatnonzero(bad)
        return int(hits[0]) if len(hits) else None
    for index, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        try:
            Interval(start, end)
        except Exception:
            return index
    return None


def _raise_invalid(stored: Sequence[Stored], row: int) -> None:
    """Raise what building ``row``'s intervals, attribute by attribute,
    raises."""
    for sides in stored:
        if len(sides) == 2:
            Interval(_first(sides[0][row:]), _first(sides[1][row:]))


def _joined(parts: Sequence[Union[range, np.ndarray]]) -> Optional[np.ndarray]:
    """Blocks' rids end to end — ``None`` while every block is numbered
    by position, a numbering that never repeats."""
    if all(isinstance(part, range) for part in parts):
        return None
    return _concat([
        np.arange(part.start, part.stop) if isinstance(part, range) else part
        for part in parts
    ])


def _refuse_duplicates(name: str, rids: Optional[np.ndarray]) -> None:
    """Refuse the first row whose rid repeats an earlier row's."""
    if rids is None:
        return
    if rids.dtype == object:
        seen = set()
        for rid in rids.tolist():
            if rid in seen:
                raise QueryError(f"relation {name!r}: duplicate row id {rid}")
            seen.add(rid)
        return
    if len(rids) < 2 or (rids[1:] > rids[:-1]).all():
        return
    order = np.argsort(rids, kind="stable")
    repeats = order[1:][rids[order[1:]] == rids[order[:-1]]]
    if len(repeats):
        raise QueryError(f"relation {name!r}: duplicate row id {_first(rids[repeats.min():])}")
