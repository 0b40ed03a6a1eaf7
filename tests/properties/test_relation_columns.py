"""Property-based tests for the columns a relation owns.

``Relation.columns`` replaces the per-row ``Row.interval`` loops of
every whole-relation reader, so the columns — and what
``build_partitioning`` and ``profile_data`` now compute from them — must
equal those loops exactly, which are kept here as the oracles, on the
inputs where arrays and objects most easily part ways: zero-length and
touching intervals, duplicated endpoints, integers float64 cannot hold,
ints mixed with floats, real-valued attributes (the Section 9 point
embedding), empty and one-row relations, several attributes per row.

``PayloadStore.take`` is the same move on the way out: gids resolve to
payloads a column at a time, and must resolve to what ``value`` resolves
them to one at a time.  ``PayloadStore.block`` resolves them to row
indices instead — through a base input's relation, a flag block or a
tuple block — and must name the rows a record-by-record walk names.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.columnar.batch import IndexBlock, PayloadStore, endpoint_column
from repro.core.algorithms.base import build_partitioning
from repro.core.algorithms.routing import (
    NEW_SIDE,
    FlaggedRowView,
    MemberView,
    OperatorRouter,
    RoutedMapper,
    RowView,
)
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Relation, Row
from repro.core.tuning import DataProfile, profile_data
from repro.errors import InvalidPartitioningError, PlanningError
from repro.intervals.allen import MapOperator
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning

BIG = 2**53

# Few distinct values, so equal and touching endpoints are the rule.
small = st.integers(min_value=0, max_value=12)
#: One attribute's endpoint family.  The first three are float64-exact;
#: an integer past 2**53 puts its whole column on ``object`` dtype
#: (``big`` is odd, so never exact; ``big-mixed`` has small ones among).
FAMILIES = {
    "int": small,
    "float": small.map(lambda v: v / 2),
    "mixed": st.one_of(small, small.map(lambda v: v / 2)),
    "big": small.map(lambda v: BIG + 1 + 2 * v),
    "big-mixed": st.one_of(small, small.map(lambda v: BIG + 1 + 2 * v)),
}
EXACT, INEXACT = ("int", "float", "mixed"), ("big", "big-mixed")


def intervals(family):
    lengths = st.sampled_from([0, 0, 2, 4])
    return st.tuples(FAMILIES[family], lengths).map(
        lambda t: Interval(t[0], t[0] + t[1])
    )


@st.composite
def relations(draw, name, families=EXACT + INEXACT):
    """A relation with interval attributes ``a`` and ``b`` and the
    real-valued attribute ``v``, each from its own endpoint family."""
    family = {attr: draw(st.sampled_from(families)) for attr in "abv"}
    size = draw(st.sampled_from([0, 1, 1, 2, 5, 9]))
    records = [
        {
            "a": draw(intervals(family["a"])),
            "b": draw(intervals(family["b"])),
            "v": draw(FAMILIES[family["v"]]),
        }
        for _ in range(size)
    ]
    return Relation.of_records(name, records)


def datasets(families):
    return st.fixed_dictionaries(
        {name: relations(name, families) for name in "RST"}
    )


#: Two terms of one relation, one attribute under two terms, and a
#: real-valued term (always a float64 column: the embedding is
#: ``point(float(v))``) — and the same without it, for ``object`` data.
QUERIES = {
    "float64": (
        IntervalJoinQuery.parse(
            [("R.a", "overlaps", "S.a"), ("R.b", "before", "T.b"),
             ("S.v", "during", "T.a")]
        ),
        datasets(EXACT),
    ),
    "object": (
        IntervalJoinQuery.parse(
            [("R.a", "overlaps", "S.a"), ("R.b", "before", "T.b"),
             ("S.b", "meets", "T.a")]
        ),
        datasets(INEXACT),
    ),
}


def one_dtype(query, data):
    """Whether the query's non-empty columns are all float64 or all
    ``object``.  Arithmetic *between* the two kinds — an interval with a
    float64-exact start and an end past 2**53, a time span from a float64
    column's minimum to an ``object`` column's maximum — is float64 on
    the float64 side, where the row loop had the rows' own Python ints:
    equal to within the rounding of 2**53-sized numbers, not to the bit,
    and not what these tests pin."""
    dtypes = {
        column.dtype
        for term in query.terms
        for columns in [data[term.relation].columns(term.attribute)]
        for column in (columns.starts, columns.ends)
        if len(column)
    }
    return len(dtypes) <= 1


def same_number(got, want):
    """Equal as numbers and, when both are floats, to the last bit."""
    return got == want and float(got).hex() == float(want).hex()


# ----------------------------------------------------------------------
# The columns themselves
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(relation=relations("R"), attribute=st.sampled_from("abv"))
def test_columns_are_the_rows_intervals(relation, attribute):
    starts = [row.interval(attribute).start for row in relation.rows]
    ends = [row.interval(attribute).end for row in relation.rows]
    columns = relation.columns(attribute)
    for column, want in ((columns.starts, starts), (columns.ends, ends)):
        assert column.dtype == endpoint_column(want).dtype
        assert column.tolist() == want
        if column.dtype == object:
            # The exact Python numbers, not their nearest floats.
            assert [type(v) for v in column.tolist()] == [type(v) for v in want]
    assert relation.columns(attribute) is columns
    assert all(a is b for a, b in zip(relation.row_column(), relation.rows))


# ----------------------------------------------------------------------
# build_partitioning / profile_data against the per-row loops they were
# ----------------------------------------------------------------------


def partitioning_by_rows(query, data, parts, strategy):
    starts, lo, hi = [], None, None
    for term in query.terms:
        for row in data[term.relation].rows:
            iv = row.interval(term.attribute)
            starts.append(iv.start)
            lo = iv.start if lo is None else min(lo, iv.start)
            hi = iv.end if hi is None else max(hi, iv.end)
    if lo is None or hi is None:
        lo, hi = 0.0, 1.0
    if hi <= lo:
        hi = lo + 1.0
    if strategy == "uniform" or not starts:
        return Partitioning.covering(lo, hi, parts)
    return Partitioning.equi_depth(starts, parts)


def profile_by_rows(query, data):
    rows_per_relation, total_length, count, lo, hi = {}, 0.0, 0, None, None
    for term in query.terms:
        relation = data[term.relation]
        rows_per_relation.setdefault(term.relation, len(relation))
        for row in relation.rows:
            interval = row.interval(term.attribute)
            total_length += interval.length
            count += 1
            lo = interval.start if lo is None else min(lo, interval.start)
            hi = interval.end if hi is None else max(hi, interval.end)
    span = (hi - lo) if (lo is not None and hi is not None) else 1.0
    return DataProfile(
        total_rows=sum(rows_per_relation.values()),
        rows_per_relation=rows_per_relation,
        mean_length=(total_length / count) if count else 0.0,
        time_span=max(span, 1e-9),
    )


@pytest.mark.parametrize("kind", sorted(QUERIES))
@pytest.mark.parametrize("strategy", ["uniform", "equi_depth"])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), parts=st.integers(min_value=1, max_value=7))
def test_build_partitioning_equals_the_row_loop(strategy, kind, data, parts):
    query, strategy_of_data = QUERIES[kind]
    data = data.draw(strategy_of_data)
    assume(one_dtype(query, data))
    try:
        want = partitioning_by_rows(query, data, parts, strategy)
    except InvalidPartitioningError as error:
        # A range float64 cannot tell apart.
        with pytest.raises(InvalidPartitioningError, match=re.escape(str(error))):
            build_partitioning(query, data, parts, strategy)
        return
    got = build_partitioning(query, data, parts, strategy)
    assert len(got.boundaries) == len(want.boundaries)
    assert all(map(same_number, got.boundaries, want.boundaries))
    assert repr(got) == repr(want)


def test_build_partitioning_rejects_an_unknown_strategy():
    data = {name: Relation.of_records(name, []) for name in "RST"}
    with pytest.raises(PlanningError, match="unknown partitioning strategy"):
        build_partitioning(QUERIES["float64"][0], data, 4, "zipf")


@pytest.mark.parametrize("kind", sorted(QUERIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_profile_data_equals_the_row_loop(kind, data):
    query, strategy_of_data = QUERIES[kind]
    data = data.draw(strategy_of_data)
    assume(one_dtype(query, data))
    got, want = profile_data(query, data), profile_by_rows(query, data)
    assert got == want
    assert same_number(got.mean_length, want.mean_length)
    assert same_number(got.time_span, want.time_span)
    assert isinstance(got.mean_length, float)


def test_mean_length_is_the_sequential_sum():
    """Pairwise summation (``np.sum``) differs from the row loop in the
    last bits on a few thousand lengths, and every analytic prediction
    is computed from this number."""
    rng = np.random.default_rng(7)
    starts = rng.uniform(0, 1e5, 5_000)
    relation = Relation.of_intervals(
        "R", [Interval(s, s + l) for s, l in zip(starts, rng.uniform(1, 100, 5_000))]
    )
    query = IntervalJoinQuery.parse([("R", "overlaps", "S")])
    data = {"R": relation, "S": relation.alias("S")}
    got, want = profile_data(query, data), profile_by_rows(query, data)
    assert got.mean_length.hex() == want.mean_length.hex()
    columns = relation.columns("I")
    pairwise = float(np.sum(np.tile(columns.ends - columns.starts, 2))) / 10_000
    assert pairwise.hex() != want.mean_length.hex()


# ----------------------------------------------------------------------
# PayloadStore.take against each record's view.value_of
# ----------------------------------------------------------------------


def row_leaves(payload):
    """The rows inside a payload, outermost first."""
    if isinstance(payload, Row):
        return [payload]
    if isinstance(payload, tuple):
        return [leaf for member in payload for leaf in row_leaves(member)]
    return []


@st.composite
def stores(draw):
    """A store over base segments (inputs that name their relation, or
    rows that name none) and gids into it: repeated, unsorted, across
    segments."""
    relation = draw(relations("R").filter(len))
    rows = list(relation.rows)
    router = OperatorRouter(Partitioning.uniform(0, 1, 2), MapOperator.PROJECT)
    segments = [
        (rows, RowView("R", "a"), relation),
        (rows, RowView("R", "a", side=NEW_SIDE), relation),
        (rows, RowView("R", "a"), None),
    ]
    store = PayloadStore()
    for segment, (records, view, source) in enumerate(segments):
        store.add_segment(segment, records, RoutedMapper(view, router), source)
    gid = st.tuples(
        st.integers(0, len(segments) - 1), st.integers(0, len(rows) - 1)
    ).map(lambda t: (t[0] << 32) | t[1])
    return store, segments, draw(st.lists(gid, max_size=40))


@settings(max_examples=150, deadline=None)
@given(case=stores())
def test_take_resolves_what_value_resolves(case):
    """``take`` resolves each gid to the payload of its record's shuffle
    value, as the mapper's view states it one record at a time."""
    store, segments, gids = case
    taken = store.take(np.asarray(gids, dtype=np.int64))
    assert taken.dtype == object and len(taken) == len(gids)
    for payload, gid in zip(taken, gids):
        records, view, _ = segments[gid >> 32]
        want = view.value_of(records[gid & 0xFFFFFFFF])[1]
        assert payload == want
        # The same row objects, not equal copies.
        leaves = row_leaves(payload)
        assert leaves and all(map(lambda a, b: a is b, leaves, row_leaves(want)))
    assert store.take(gids).tolist() == taken.tolist()  # a plain list too


def test_take_of_one_segment_and_of_nothing():
    relation = Relation.of_intervals("R", [Interval(0, 1), Interval(2, 3)], "a")
    router = OperatorRouter(Partitioning.uniform(0, 1, 2), MapOperator.PROJECT)
    store = PayloadStore()
    store.add_segment(
        0, list(relation.rows), RoutedMapper(RowView("R", "a"), router), relation
    )
    assert store.take(np.array([1, 0, 1])).tolist() == [
        relation.rows[1], relation.rows[0], relation.rows[1],
    ]
    assert store.take(np.empty(0, dtype=np.int64)).tolist() == []
    with pytest.raises(KeyError):
        store.take(np.array([1, (5 << 32) | 1]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_names_the_rows_each_record_holds(data):
    """``block`` resolves a gid column through its input: a base
    relation's row, a flag block's row, or a tuple block's members —
    the rows walking the records one by one finds."""
    r = data.draw(relations("R").filter(len))
    s = data.draw(relations("S").filter(len))
    n = data.draw(st.integers(1, 8))
    pick = lambda size: data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
    flags = IndexBlock(("R", "S"), (r, s), pick(len(r)), [0] * n, [True] * n)
    partials = IndexBlock(("S", "R"), (s, r), np.stack([pick(len(s)), pick(len(r))], axis=1))
    router = OperatorRouter(Partitioning.uniform(0, 1, 2), MapOperator.PROJECT)
    store = PayloadStore()
    for segment, (records, view, source) in enumerate([
        (r.rows, RowView("R", "a"), r),
        (flags, FlaggedRowView({"R": "a", "S": "a"}), flags),
        (partials, MemberView("S", "a"), partials),
    ]):
        store.add_segment(segment, records, RoutedMapper(view, router), source)
    base, at = (np.array(pick(size), dtype=np.int64) for size in (len(r), n))
    gids = np.stack([base, (1 << 32) | at, (2 << 32) | at], axis=1)
    block = store.block(gids, [["R"], ["R"], ["S", "R"]], labelled=True)
    assert block.names == ("R", "R", "S", "R")
    assert list(block) == [
        (("R", r.rows[i]), ("R", flags[j][1]), *partials[j])
        for i, j in zip(base.tolist(), at.tolist())
    ]
    assert store.block(gids[:0], [["R"], ["R"], ["S", "R"]], True) == []
