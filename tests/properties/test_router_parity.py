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
``value_of``.  A view states what it shuffles twice as well:
``value_of`` for one record, ``payloads_of`` for a column of them.
"""

from __future__ import annotations

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.codec import KEY_CODECS
from repro.core.algorithms.routing import (
    NEW_SIDE,
    FlaggedRowView,
    FlagRouter,
    LiftedRowView,
    MemberView,
    OperatorRouter,
    PinnedCellRouter,
    RightmostMemberView,
    RoutedMapper,
    RowView,
    View,
)
from repro.core.schema import Relation
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
    "cells-dim0": lambda p: PinnedCellRouter(p, 0, _triangle(len(p), False)),
    "cells-dim1": lambda p: PinnedCellRouter(p, 1, _triangle(len(p), True)),
    # Odd coordinates pin no cell at all.
    "cells-sparse": lambda p: PinnedCellRouter(
        p, 0, [cell for cell in _triangle(len(p), False) if cell[0] % 2 == 0]
    ),
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
    assert mapper.columnar_ready()
    context = MapContext(Counters(), "test")
    for record in records:
        mapper.map(record, context)
    block = mapper.map_columns(starts, ends, records)
    assert context.drain() == [
        (decode(code), mapper.value_of(records[index]))
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


_ROWS = Relation.of_intervals("R", [Interval(0, 1), Interval(2, 5), Interval(2, 2)]).rows
_PARTIALS = [(("R", row), ("S", _ROWS[0])) for row in _ROWS]
#: Every view, over records of the shape it reads.
VIEWS = {
    "row": (RowView("R", "I"), _ROWS),
    "row-sided": (RowView("R", "I", side=NEW_SIDE), _ROWS),
    "lifted": (LiftedRowView("R", "I"), _ROWS),
    "member": (MemberView("S", "I"), _PARTIALS),
    "flagged": (
        FlaggedRowView({"R": "I"}),
        [("R", row, index % 2 == 0) for index, row in enumerate(_ROWS)],
    ),
    "rightmost": (RightmostMemberView({"R": "I", "S": "I"}, 1), _PARTIALS),
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
