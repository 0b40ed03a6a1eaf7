"""Router parity as a property: the two forms of a routing agree.

Every router of :mod:`repro.core.algorithms.routing` states its decision
twice — ``targets()`` for one record, ``map_columns()`` for a whole
input as endpoint columns.  For each router, over uniform and
``equi_depth`` partitionings and intervals biased to the corners where
the two forms could part ways (zero-length, touching and duplicated
endpoints, endpoints exactly on partition boundaries, ``t_min`` /
``t_max`` and just outside them), the keys ``targets()`` yields record by
record equal the decoded ``map_columns()`` keys with the same
``row_idx``, and the counter increments are equal — a counter that stays
zero is created by neither.  The mapper built on a router then emits the
same ``(key, value)`` pairs through ``map`` as through ``map_columns`` +
the view's ``value_of``.  A view states what it shuffles twice as well:
``value_of`` for one record, ``payloads_of`` for a column of them.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.codec import KEY_CODECS
from repro.core.algorithms.routing import (
    NEW_SIDE,
    CellRouter,
    FlagRouter,
    OperatorRouter,
    RoutedMapper,
    RowView,
    View,
)
from repro.core.schema import Relation, Row
from repro.intervals.allen import MapOperator
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.counters import Counters
from repro.mapreduce.task import MapContext


class _PairView(View):
    """Records are ``(interval, flagged)`` pairs, shuffled whole."""

    tag = "pair"
    interval_of = staticmethod(operator.itemgetter(0))
    flagged = staticmethod(operator.itemgetter(1))

    def value_of(self, record):
        return ("pair", record)


def _triangle(side, lower):
    return [
        (i, j)
        for i in range(side)
        for j in range(side)
        if (j <= i if lower else i <= j)
    ]


def _chain(side, dims):
    """The consistent cells of a pure sequence grid ``c_0 <= c_1 <= ...``."""
    return [
        cell
        for cell in itertools.product(range(side), repeat=dims)
        if list(cell) == sorted(cell)
    ]


def _kept(record):
    """PASM's marks, stood in for: every interval but a zero-length one."""
    return record[0].start != record[0].end


#: name -> router over a partitioning; every router, every variant that
#: changes a key or a counter.
ROUTERS = {
    "project": lambda p: OperatorRouter(p, MapOperator.PROJECT),
    "split": lambda p: OperatorRouter(p, MapOperator.SPLIT),
    "replicate": lambda p: OperatorRouter(p, MapOperator.REPLICATE),
    "flag": lambda p: FlagRouter(p, _PairView.flagged),
    "flag-uncounted": lambda p: FlagRouter(
        p, _PairView.flagged, count_pairs=False
    ),
    # (component, index) keys: the grid algorithms' flag and mark cycles.
    "split-prefixed": lambda p: OperatorRouter(p, MapOperator.SPLIT, prefix=3),
    "flag-prefixed": lambda p: FlagRouter(p, _PairView.flagged, prefix=2),
    # Pinned on each dimension of a 2-D grid (the cascade's sequence steps).
    "cells-dim0": lambda p: CellRouter(p, 0, _triangle(len(p), False)),
    "cells-dim1": lambda p: CellRouter(p, 1, _triangle(len(p), True)),
    # Odd coordinates pin no cell at all.
    "cells-sparse": lambda p: CellRouter(
        p, 0, [cell for cell in _triangle(len(p), False) if cell[0] % 2 == 0]
    ),
    # A flagged row widens to the upper tail (All-Seq-Matrix's join).
    "cells-flagged": lambda p: CellRouter(
        p, 1, _triangle(len(p), True), _PairView.flagged
    ),
    # A row outside ``keep`` is dropped (PASM's join).
    "cells-pruned": lambda p: CellRouter(
        p, 0, _triangle(len(p), False), _PairView.flagged, keep=_kept
    ),
    "cells-3d": lambda p: CellRouter(p, 1, _chain(len(p), 3), _PairView.flagged),
    "cells-4d": lambda p: CellRouter(p, 3, _chain(len(p), 4)),
}


@st.composite
def partitionings(draw):
    parts = draw(st.integers(min_value=1, max_value=9))
    if draw(st.booleans()):
        lo = draw(st.integers(min_value=-50, max_value=50))
        width = draw(st.integers(min_value=1, max_value=200))
        return Partitioning.uniform(float(lo), float(lo + width), parts)
    points = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    return Partitioning.equi_depth(points, parts)


@st.composite
def routed_inputs(draw):
    """A partitioning and records ``(interval, flagged)`` whose endpoints
    favour the partition boundaries and the ends of time."""
    parts = draw(partitionings())
    corners = list(parts.boundaries) + [parts.t_min - 1.0, parts.t_max + 1.0]
    endpoint = st.one_of(
        st.sampled_from(corners),
        st.floats(
            min_value=parts.t_min - 2.0,
            max_value=parts.t_max + 2.0,
            allow_nan=False,
        ),
    )
    interval = st.one_of(
        endpoint.map(lambda t: Interval(t, t)),  # zero-length
        st.tuples(endpoint, endpoint).map(lambda ab: Interval(*sorted(ab))),
    )
    records = draw(st.lists(st.tuples(interval, st.booleans()), max_size=25))
    if records and draw(st.booleans()):
        records += draw(st.lists(st.sampled_from(records), max_size=5))
    return parts, records


@pytest.mark.parametrize("name", sorted(ROUTERS))
@given(routed_inputs())
@settings(max_examples=120, deadline=None)
def test_targets_and_map_columns_agree(name, routed):
    parts, records = routed
    router = ROUTERS[name](parts)
    view = _PairView()
    decode = KEY_CODECS[router.key_kind].decode
    starts = np.array([r[0].start for r in records], dtype=np.float64)
    ends = np.array([r[0].end for r in records], dtype=np.float64)

    counters = Counters()
    expected = [
        (index, key)
        for index, record in enumerate(records)
        for key in router.targets(view.interval_of(record), record, counters)
    ]
    key_codes, row_idx, increments = router.map_columns(starts, ends, records)
    assert [
        (index, decode(code))
        for index, code in zip(row_idx.tolist(), key_codes.tolist())
    ] == expected
    assert {
        (group, counter): amount for group, counter, amount in counters
    } == increments
    assert 0 not in increments.values()

    # The mapper on top: both forms shuffle the same pairs.
    mapper = RoutedMapper(view, router)
    context = MapContext(Counters(), "test")
    for record in records:
        mapper.map(record, context)
    block = mapper.map_columns(starts, ends, records)
    assert context.drain() == [
        (decode(code), view.value_of(records[index]))
        for code, index in zip(block.key_codes.tolist(), block.row_idx.tolist())
    ]
    assert context.counters.snapshot() == counters.snapshot()
    assert [block.tags[code] for code in block.tag_codes.tolist()] == [
        "pair"
    ] * len(block)


@given(routed_inputs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_a_prefix_only_wraps_the_keys(routed, prefix):
    """``(component, index)`` keys are the unprefixed router's keys under
    a prefix — same counters — and a pair of small ints, which the cell
    codec packs."""
    parts, records = routed
    for build in (
        lambda **kw: OperatorRouter(parts, MapOperator.SPLIT, **kw),
        lambda **kw: OperatorRouter(parts, MapOperator.REPLICATE, **kw),
        lambda **kw: FlagRouter(parts, _PairView.flagged, **kw),
    ):
        plain, prefixed = build(), build(prefix=prefix)
        assert (plain.key_kind, prefixed.key_kind) == ("int", "cell")
        plain_counters, prefixed_counters = Counters(), Counters()
        for record in records:
            assert list(
                prefixed.targets(record[0], record, prefixed_counters)
            ) == [
                (prefix, index)
                for index in plain.targets(record[0], record, plain_counters)
            ]
        assert prefixed_counters.snapshot() == plain_counters.snapshot()


@given(routed_inputs(), st.integers(min_value=0, max_value=2))
@settings(max_examples=80, deadline=None)
def test_a_multi_term_row_goes_to_the_cells_inside_every_range(routed, dim):
    """A multi-attribute relation (Gen-Matrix, Section 9.1) constrains one
    dimension per term — pinned at the term's start partition, or the
    upper tail where the term is flagged — and a row goes to the cells
    inside every constraint, intersected where two terms share a
    dimension.  The columnar form reads the further term off the
    mapper's term columns and emits the same cells in the same order,
    with the same counters."""
    parts, records = routed
    cells = _chain(len(parts), 3)
    rows = [
        Row.make(rid, {"a": record[0], "b": records[rid - 1][0]})
        for rid, record in enumerate(records)
    ]
    tail_a = [record[1] for record in records]
    tail_b = [rid % 3 == 0 for rid in range(len(records))]
    router = CellRouter(
        parts, 0, cells, lambda row: tail_a[row.rid],
        also=[(dim, parts, "b", lambda row: tail_b[row.rid])],
    )
    assert router.key_kind == "cell"

    def allowed(interval, tail):
        q = parts.project(interval)
        return set(range(q, len(parts))) if tail else {q}

    counters, replicated = Counters(), 0
    for row in rows:
        constraints = {0: allowed(row.interval("a"), tail_a[row.rid])}
        constraints[dim] = constraints.get(dim, set(range(len(parts)))) & allowed(
            row.interval("b"), tail_b[row.rid]
        )
        want = [
            cell for cell in cells
            if all(cell[d] in allowed_d for d, allowed_d in constraints.items())
        ]
        got = router.targets(row.interval("a"), row, counters)
        assert sorted(got) == want
        if tail_a[row.rid] or tail_b[row.rid]:
            replicated += len(want)
    assert counters.value("join", "replicated_pairs") == replicated
    assert 0 not in counters.group("join").values()

    mapper = RoutedMapper(RowView("R", "a", also=["b"]), router)
    for source in (None, Relation("R", rows)):
        starts, ends = mapper.encode_intervals(rows, source)
        terms = mapper.encode_terms(rows, source)
        key_codes, row_idx, increments = router.map_columns(starts, ends, rows, terms)
        decode = KEY_CODECS["cell"].decode
        assert [
            (index, decode(code))
            for index, code in zip(row_idx.tolist(), key_codes.tolist())
        ] == [
            (index, cell)
            for index, row in enumerate(rows)
            for cell in router.targets(row.interval("a"), row, Counters())
        ]
        assert increments == {
            (group, name): amount for group, name, amount in counters
        }


_ROWS = Relation.of_intervals("R", [Interval(0, 1), Interval(2, 5), Interval(2, 2)]).rows
#: Every view with a per-record form, over records of the shape it reads
#: (the views of derived inputs read blocks only: no record reaches them).
VIEWS = {
    "row": (RowView("R", "I"), _ROWS),
    "row-sided": (RowView("R", "I", side=NEW_SIDE), _ROWS),
    "generic": (_PairView(), [(Interval(0, 1), True), (Interval(3, 3), False)]),
}


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_a_payload_column_is_the_values_second_members(name):
    view, records = VIEWS[name]
    column = np.fromiter(records, dtype=object, count=len(records))
    payloads = view.payloads_of(column)
    assert payloads.dtype == object and payloads.shape == (len(records),)
    assert payloads.tolist() == [view.value_of(record)[1] for record in records]
    assert len(view.payloads_of(column[:0])) == 0
