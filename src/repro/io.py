"""Relation serialisation: JSON-lines persistence and text parsing.

Gives the CLI (and LocalFileSystem-backed pipelines) a durable on-disk
format for relations:

* JSON-lines: one object per row, interval attributes encoded as
  ``{"start": s, "end": e}``, scalars as numbers;
* a permissive text format for single-attribute relations: one interval
  per line as ``start end`` (whitespace- or comma-separated), mirroring
  how the paper's Hadoop jobs read HDFS lines.
"""

from __future__ import annotations

import json
import os
import secrets
from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.columnar.batch import object_column
from repro.errors import ReproError
from repro.core.schema import (
    DEFAULT_ATTRIBUTE,
    AttributeValue,
    Column,
    Relation,
    Row,
    record_columns,
)
from repro.intervals.interval import Interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import JoinResult

__all__ = [
    "encode_row",
    "decode_row",
    "save_relation",
    "save_result",
    "load_relation",
    "parse_interval_lines",
    "load_intervals_text",
    "CHUNK_LINES",
]

#: Lines (rows) :func:`load_relation` parses, and :func:`save_relation`
#: formats, at a time.
CHUNK_LINES = 1024

#: The JSON types an interval endpoint may have; ``bool`` is not one.
_NUMBERS = {int, float}


def _encode_value(value: AttributeValue) -> Any:
    if isinstance(value, Interval):
        return {"start": value.start, "end": value.end}
    return value


def _decode_values(values: List[Any]) -> Column:
    """The value decoder: one attribute's JSON values as a builder
    column — ``(starts, ends)`` when every value is an interval object,
    else the values, interval objects decoded one by one.  Endpoints
    keep their JSON type (an integer stays exact past 2**53); anything
    but a number is refused."""
    kinds = set(map(type, values))
    if dict not in kinds:
        return values
    if kinds != {dict}:  # intervals in some rows only: decode them alone
        return [_interval(value) if type(value) is dict else value for value in values]
    try:
        starts = [value["start"] for value in values]
        ends = [value["end"] for value in values]
    except KeyError:
        bad = next(v for v in values if "start" not in v or "end" not in v)
        raise ReproError(
            f"malformed interval object {bad!r}; expected "
            "{'start': ..., 'end': ...}"
        ) from None
    for side in (starts, ends):
        if not set(map(type, side)) <= _NUMBERS:
            bad = next(v for v in side if type(v) not in _NUMBERS)
            raise ReproError(f"non-numeric interval endpoint {bad!r}")
    return starts, ends


def _interval(value: Dict[str, Any]) -> Interval:
    (start,), (end,) = _decode_values([value])
    return Interval(start, end)


def _check_payload(payload: Any) -> None:
    """Refuse a payload that is not ``{"rid": <int>, "values": {...}}``."""
    try:
        int(payload["rid"])
        if type(payload["values"]) is dict:
            return
    except (KeyError, TypeError, ValueError):
        pass
    raise ReproError(f"malformed row payload {payload!r}")


def _decode_payloads(
    name: str, payloads: Sequence[Any]
) -> Tuple[Dict[str, Column], List[int]]:
    """A block of :func:`encode_row` payloads as builder columns and
    rids."""
    try:
        rids = [int(payload["rid"]) for payload in payloads]
        records = [payload["values"] for payload in payloads]
    except (KeyError, TypeError, ValueError):
        records = None
    if records is None or not set(map(type, records)) <= {dict}:
        for payload in payloads:
            _check_payload(payload)  # raises for the first malformed one
    columns = record_columns(name, records, rids)
    return {a: _decode_values(column) for a, column in columns.items()}, rids


def encode_row(row: Row) -> Dict[str, Any]:
    """A JSON-able representation of one row."""
    payload: Dict[str, Any] = {"rid": row.rid}
    payload["values"] = {
        name: _encode_value(value) for name, value in row.data
    }
    return payload


def decode_row(payload: Dict[str, Any]) -> Row:
    """The inverse of :func:`encode_row`."""
    columns, rids = _decode_payloads("", [payload])
    return Relation.from_columns("", columns, rids).rows[0]


def _tokens(values: List[Any]) -> List[str]:
    """``json.dumps`` of each value: for a column of plain numbers, one
    call for the whole column, split at its separators."""
    if set(map(type, values)) <= _NUMBERS:
        return json.dumps(values)[1:-1].split(", ")
    return [json.dumps(value) for value in values]


def _encode_lines(relation: Relation, lo: int, hi: int) -> List[str]:
    """The JSON lines of ``relation``'s rows ``lo:hi``, formatted a
    column at a time from the relation's columns into the very bytes
    ``json.dumps(encode_row(row))`` writes; no ``Row`` is built."""
    fields = [_tokens(relation.rid_column()[lo:hi].tolist())]
    template = ['{"rid": %s, "values": {']
    for index, attribute in enumerate(relation.attributes):
        key = ("" if index == 0 else ", ") + json.dumps(attribute).replace("%", "%%")
        stored = relation.stored(attribute)
        if len(stored) == 2:
            fields.append(_tokens(stored[0][lo:hi].tolist()))
            fields.append(_tokens(stored[1][lo:hi].tolist()))
            template.append(key + ': {"start": %s, "end": %s}')
            continue
        column = stored[0][lo:hi].tolist()
        if any(isinstance(value, Interval) for value in column):
            # an attribute holding intervals in some rows only
            return [json.dumps(encode_row(row)) + "\n" for row in relation.rows[lo:hi]]
        fields.append(_tokens(column))
        template.append(key + ": %s")
    line = "".join(template) + "}}\n"
    return [line % values for values in zip(*fields)]


def save_relation(relation: Relation, path: str) -> int:
    """Write a relation as JSON lines; returns the row count.

    The lines go to a temporary file beside ``path``, which then
    replaces ``path`` whole: a save that fails leaves an existing file
    as it was, and no temporary file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temporary = os.path.join(
        directory, f".{os.path.basename(path)}.{secrets.token_hex(6)}.tmp"
    )
    try:
        with open(temporary, "x", encoding="utf-8") as handle:
            for lo in range(0, len(relation), CHUNK_LINES):
                handle.writelines(_encode_lines(relation, lo, lo + CHUNK_LINES))
        os.replace(temporary, path)
    except BaseException:
        try:
            os.remove(temporary)
        except FileNotFoundError:
            pass
        raise
    return len(relation)


def save_result(result: "JoinResult", path: str) -> int:
    """Write a join result as JSON lines, one per output tuple in output
    order: an object naming each query relation's row as
    :func:`encode_row` encodes it — the very bytes ``json.dumps({name:
    encode_row(row), ...})`` writes.  Formatted a column at a time from
    the result's blocks: each member relation's lines once, from its
    columns (:func:`_encode_lines`), then :data:`CHUNK_LINES` tuples'
    lines at a time from taken columns of them; no ``Row`` is built.
    Returns the line count."""
    names = result.query.relations
    template = "{" + ", ".join(
        json.dumps(name).replace("%", "%%") + ": %s" for name in names
    ) + "}\n"
    encoded: Dict[int, Any] = {}

    def payloads(relation: Relation) -> Any:
        if id(relation) not in encoded:
            encoded[id(relation)] = object_column([
                line[:-1]
                for lo in range(0, len(relation), CHUNK_LINES)
                for line in _encode_lines(relation, lo, lo + CHUNK_LINES)
            ])
        return encoded[id(relation)]

    with open(path, "w", encoding="utf-8") as handle:
        for block in result.blocks():
            members = [block.member(name) for name in names]
            columns = [(payloads(relation), at) for relation, at in members]
            for lo in range(0, len(block), CHUNK_LINES):
                taken = [lines[at[lo : lo + CHUNK_LINES]] for lines, at in columns]
                handle.writelines(template % values for values in zip(*taken))
    return len(result)


def _parse_chunk(path: str, lines: List[str], first_line: int) -> List[Any]:
    """The payloads of a chunk of lines, blank ones skipped: one
    ``json.loads`` for the chunk, or — when that fails, or its lines do
    not hold one value each — one per line, to name the bad line."""
    body = [line for line in lines if not line.isspace()]
    try:
        payloads = json.loads("[" + ",".join(body) + "]")
        if len(payloads) == len(body):
            return payloads
    except json.JSONDecodeError:
        pass
    payloads = []
    for line_number, line in enumerate(lines, start=first_line):
        if line.isspace():
            continue
        try:
            payloads.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}:{line_number}: invalid JSON ({exc})") from None
    return payloads


def load_relation(path: str, name: str) -> Relation:
    """Read a JSON-lines relation written by :func:`save_relation`,
    :data:`CHUNK_LINES` lines at a time, each chunk decoded straight
    into columns and checked (:meth:`Relation.from_column_blocks`, which
    also keeps the collector paused while the chunks are parsed) before
    the next is read; no ``Row`` is built."""

    def blocks(handle) -> Iterator[Tuple[Dict[str, Column], List[int]]]:
        first_line = 1
        while True:
            lines = list(islice(handle, CHUNK_LINES))
            if not lines:
                return
            yield _decode_payloads(name, _parse_chunk(path, lines, first_line))
            first_line += len(lines)

    with open(path, "r", encoding="utf-8") as handle:
        return Relation.from_column_blocks(name, blocks(handle))


def _endpoint_lines(lines: Iterable[str]) -> Iterator[Tuple[float, float]]:
    """The ``(start, end)`` of each ``start end`` line (whitespace or
    comma separated), blank lines and ``#`` comments skipped, each
    checked as ``Interval`` checks it."""
    for line_number, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.replace(",", " ").split()
        if len(parts) != 2:
            raise ReproError(
                f"line {line_number}: expected 'start end', got {line!r}"
            )
        try:
            start, end = float(parts[0]), float(parts[1])
        except ValueError:
            raise ReproError(
                f"line {line_number}: non-numeric endpoints in {line!r}"
            ) from None
        if not start <= end:
            Interval(start, end)  # raises: NaN, or the end precedes the start
        yield start, end


def parse_interval_lines(lines: Iterable[str]) -> Iterator[Interval]:
    """Parse ``start end`` lines (whitespace or comma separated).

    Blank lines and ``#`` comments are skipped.
    """
    for start, end in _endpoint_lines(lines):
        yield Interval(start, end)


def load_intervals_text(path: str, name: str) -> Relation:
    """Read a single-attribute relation from a ``start end`` text file,
    its endpoints straight into columns."""
    with open(path, "r", encoding="utf-8") as handle:
        pairs = list(_endpoint_lines(handle))
    starts = [start for start, _ in pairs]
    ends = [end for _, end in pairs]
    return Relation.from_columns(name, {DEFAULT_ATTRIBUTE: (starts, ends)})
