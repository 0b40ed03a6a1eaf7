"""Order-aware windows: a colocation predicate's candidates are only the
half of the intersecting window its start order allows.

For every colocation predicate and either indexed side, the half
:func:`repro.intervals.sweep.window_kind` picks must hold every true
pair and lie inside the whole intersecting window — on zero-length,
touching and equal-start intervals, and on ``object`` endpoints past
2**53.  :func:`true_pairs` must return the pair set of the whole window
masked by the predicate, and :class:`repro.core.local.LocalJoiner` must
charge the comparisons it charged when it expanded whole windows, on
chains, stars and a triangle whose steps carry two conditions.  A fixed-
seed census pins the narrowing itself: a 2-way and a 3-way overlap join
expand no candidate outside the half.

A sequence predicate's window is exactly its true set — on float64 and
mixed ``object`` endpoints past 2**53, zero-length and touching
intervals, restricted or not — so ``LocalJoiner`` never evaluates the
mask of a sequence access condition (a census over counted predicates),
unless the window's keys and probes differ in dtype, and charges what
evaluating it charged.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_dataset

from repro.core import local
from repro.core.local import LocalJoiner
from repro.core.query import IntervalJoinQuery, JoinCondition, Term
from repro.core.schema import Row
from repro.intervals import sweep
from repro.intervals.allen import ALLEN_PREDICATES, COLOCATION_PREDICATES
from repro.intervals.interval import Interval
from repro.intervals.sweep import (
    COVERING_START,
    ENDING_BEFORE,
    INTERSECTING,
    STARTING_AFTER,
    STARTING_WITHIN,
    SortedColumns,
    WindowPlan,
    true_pairs,
    window_kind,
)

BIG = 2**53

#: Small integer grids: equal starts, touching ends and zero lengths.
intervals = st.tuples(
    st.integers(0, 12), st.sampled_from([0, 0, 1, 2, 3, 5])
).map(lambda t: Interval(t[0], t[0] + t[1]))
big_intervals = intervals.map(lambda iv: Interval(BIG + iv.start, BIG + iv.end))


def sides(drawn=intervals):
    return st.lists(drawn, max_size=20)


either = st.one_of(
    st.tuples(sides(), sides()), st.tuples(sides(big_intervals), sides(big_intervals))
)


def columns(side):
    return SortedColumns.of_intervals(side)


def expanded(index, kind, probes):
    """Every candidate ``(probe, row)`` a plan expands, as a multiset."""
    plan = WindowPlan(index, kind, probes.starts, probes.ends)
    pairs = Counter()
    for probe, row in plan.blocks():
        pairs.update(zip(probe.tolist(), row.tolist()))
    return plan, pairs


def whole_window_pairs(predicate, left, right):
    """The kernel as it was: whole intersecting windows, masked."""
    out = Counter()
    for probe, row in sweep.window_blocks(right, INTERSECTING, left.starts, left.ends):
        keep = predicate.holds_columns(
            left.starts[probe], left.ends[probe], right.starts[row], right.ends[row]
        )
        out.update(zip(probe[keep].tolist(), row[keep].tolist()))
    return out


@pytest.mark.parametrize("indexed_is_left", [False, True])
@pytest.mark.parametrize("name", [p.name for p in COLOCATION_PREDICATES])
@settings(max_examples=40, deadline=None)
@given(drawn=either, block=st.sampled_from([1, 3, sweep.MAX_CANDIDATE_PAIRS]))
def test_the_half_holds_every_true_pair_inside_the_window(
    name, indexed_is_left, drawn, block
):
    predicate = ALLEN_PREDICATES[name]
    left, right = drawn
    index, probes = (left, right) if indexed_is_left else (right, left)
    kind = window_kind(predicate, indexed_is_left)
    assert kind in (STARTING_WITHIN, COVERING_START)
    with mock.patch.object(sweep, "MAX_CANDIDATE_PAIRS", block):
        plan, half = expanded(columns(index), kind, columns(probes))
    window = Counter(
        (i, j)
        for i, probe in enumerate(probes)
        for j, row in enumerate(index)
        if probe.intersects(row)
    )
    true = {
        (i, j)
        for i, probe in enumerate(probes)
        for j, row in enumerate(index)
        if (predicate.holds(row, probe) if indexed_is_left else predicate.holds(probe, row))
    }
    assert set(half) >= true
    assert max(half.values(), default=1) == 1  # each candidate once
    assert set(half) <= set(window)
    assert plan.sizes.sum() == len(half)
    assert plan.intersecting() == len(window)


@pytest.mark.parametrize("name", [p.name for p in COLOCATION_PREDICATES])
@settings(max_examples=40, deadline=None)
@given(drawn=either, block=st.sampled_from([1, 2, sweep.MAX_CANDIDATE_PAIRS]))
def test_true_pairs_are_the_whole_windows_pairs(name, drawn, block):
    predicate = ALLEN_PREDICATES[name]
    left, right = (columns(side) for side in drawn)
    with mock.patch.object(sweep, "MAX_CANDIDATE_PAIRS", block):
        got = Counter()
        for left_rows, right_rows in true_pairs(predicate, left, right):
            got.update(zip(left_rows.tolist(), right_rows.tolist()))
        assert got == whole_window_pairs(predicate, left, right)


# ----------------------------------------------------------------------
# The charge: LocalJoiner against itself on whole windows.
# ----------------------------------------------------------------------

def whole_window_kind(predicate, indexed_is_left=False):
    if predicate.is_colocation:
        return INTERSECTING
    return sweep.window_kind(predicate, indexed_is_left)


def joined(query, rows, start_with):
    counted = []
    joiner = LocalJoiner(query, counted.append, start_with=start_with)
    tuples = Counter(tuple(row.rid for row in t) for t in joiner.join(rows))
    return tuples, sum(counted)


COLOCATION_NAMES = [p.name for p in COLOCATION_PREDICATES]


@st.composite
def shaped_queries(draw):
    """A chain or a star over 2-4 relations, or a triangle whose third
    edge gives one step two conditions, with colocation predicates
    mostly — a sequence condition a step evaluates first keeps its
    colocation access condition on the whole window."""
    predicates = st.sampled_from(COLOCATION_NAMES + ["before", "after"] * 2)
    shape = draw(st.sampled_from(["chain", "star", "triangle"]))
    size = 3 if shape == "triangle" else draw(st.integers(2, 4))
    names = [f"R{i}" for i in range(size)]
    if shape == "star":
        edges = [(names[0], name) for name in names[1:]]
    else:
        edges = list(zip(names, names[1:]))
    if shape == "triangle":
        edges.append((names[0], names[2]))
    conditions = []
    for left, right in draw(st.permutations(edges)):
        if draw(st.booleans()):
            left, right = right, left
        conditions.append((left, draw(predicates), right))
    return IntervalJoinQuery.parse(conditions)


@st.composite
def shaped_data(draw, query):
    rng = random.Random(draw(st.integers(0, 2**32)))
    shift = draw(st.sampled_from([0, 0, BIG]))
    data = {}
    for name in query.relations:
        rows = []
        for rid in range(draw(st.sampled_from([0, 1, 6, 10, 10]))):
            start = rng.randint(0, 10)
            end = start + rng.choice([0, 0, 1, 2, 3, 5])
            rows.append(Row.make(rid, {"I": Interval(shift + start, shift + end)}))
        data[name] = rows
    return data


@settings(max_examples=150, deadline=None)
@given(draw=st.data(), block=st.sampled_from([1, 3, 1 << 18]))
def test_local_joiner_charges_what_whole_windows_charged(draw, block):
    query = draw.draw(shaped_queries())
    data = draw.draw(shaped_data(query))
    with mock.patch.object(sweep, "MAX_CANDIDATE_PAIRS", block):
        for start_with in query.relations:
            narrowed = joined(query, data, start_with)
            with mock.patch.object(local, "window_kind", whole_window_kind):
                whole = joined(query, data, start_with)
            assert narrowed == whole, (str(query), start_with)


# ----------------------------------------------------------------------
# The census: what the join expands at a fixed seed.
# ----------------------------------------------------------------------

def census(query, data, start_with):
    """``(candidates LocalJoiner expands, the halves' bound)``: the
    bound counts, per step, the partial bindings and new rows with the
    overlaps condition's left operand covering its right's start — the
    half window, ties included — whichever side is indexed."""
    expanded_rows = [0]
    blocks = WindowPlan.blocks

    def counting(plan):
        for probe, row in blocks(plan):
            expanded_rows[0] += len(row)
            yield probe, row

    rows = {name: data[name].rows for name in query.relations}
    with mock.patch.object(WindowPlan, "blocks", counting):
        tuples, _ = joined(query, rows, start_with)
    order = LocalJoiner(query, start_with=start_with)._binding_order
    partials, bound = [{order[0]: row} for row in rows[order[0]]], 0
    for k, name in enumerate(order[1:], 1):
        (cond,) = [
            c for c in query.conditions
            if name in (c.left.relation, c.right.relation)
            and {c.left.relation, c.right.relation} <= set(order[: k + 1])
        ]
        survivors = []
        for partial in partials:
            for row in rows[name]:
                binding = {**partial, name: row}
                x = binding[cond.left.relation].interval("I")
                y = binding[cond.right.relation].interval("I")
                bound += x.start <= y.start <= x.end
                if cond.predicate.holds(x, y):
                    survivors.append(binding)
        partials = survivors
    assert sum(tuples.values()) == len(partials)
    return expanded_rows[0], bound


@pytest.mark.parametrize(
    "conditions",
    [
        [("R1", "overlaps", "R2")],
        [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
    ],
)
def test_census_expands_only_the_half(conditions):
    query = IntervalJoinQuery.parse(conditions)
    data = make_dataset(query.relations, 150, seed=11, span=600.0, max_length=40.0)
    for start_with in query.relations:
        candidates, half = census(query, data, start_with)
        assert 0 < candidates <= half, start_with


def test_the_window_names_cover_every_kind():
    kinds = {window_kind(p, side) for p in ALLEN_PREDICATES.values() for side in (0, 1)}
    assert kinds | {INTERSECTING, sweep.ALL_ROWS} == set(range(len(sweep.WINDOW_NAMES)))
    assert len(set(sweep.WINDOW_NAMES)) == len(sweep.WINDOW_NAMES)


# ----------------------------------------------------------------------
# Sequence windows: the window is the condition's true set, so the join
# skips its mask.
# ----------------------------------------------------------------------

SEQUENCE_NAMES = ["before", "after"]


@st.composite
def sequence_sides(draw):
    """Two sides of one endpoint dtype: float64 (halves included), or
    ``object`` past 2**53 mixing Python ints with floats — zero-length
    and touching intervals throughout (``end == start`` is not
    ``before``)."""
    flavour = draw(st.sampled_from(["float", "object"]))
    side = st.lists(
        st.tuples(st.integers(0, 12), st.sampled_from([0, 0, 1, 2, 3, 5]), st.booleans()),
        max_size=20,
    )

    def endpoints(drawn):
        out = []
        for start, length, other in drawn:
            if flavour == "float":
                shift = 0.5 if other else 0.0
                out.append((start + shift, start + length + shift))
            else:
                # float(BIG) + 2k is exact; BIG + 1 is not a float64.
                base = float(BIG) if other else BIG
                out.append((base + 2 * start, base + 2 * (start + length)))
        dtype = np.float64 if flavour == "float" else object
        column = SortedColumns(
            np.array([s for s, _ in out], dtype=dtype),
            np.array([e for _, e in out], dtype=dtype),
        )
        return column, [Interval(s, e) for s, e in out]

    return endpoints(draw(side)), endpoints(draw(side))


@pytest.mark.parametrize("indexed_is_left", [False, True])
@pytest.mark.parametrize("name", SEQUENCE_NAMES)
@settings(max_examples=60, deadline=None)
@given(
    drawn=sequence_sides(),
    draw=st.data(),
    block=st.sampled_from([1, 3, sweep.MAX_CANDIDATE_PAIRS]),
)
def test_a_sequence_window_is_its_true_set(name, indexed_is_left, drawn, draw, block):
    predicate = ALLEN_PREDICATES[name]
    (index, index_side), (probes, probe_side) = drawn
    active = draw.draw(st.one_of(
        st.none(), st.lists(st.booleans(), min_size=len(index_side), max_size=len(index_side))
    ))
    if active is not None:
        index = index.restrict(np.array(active, dtype=bool))
    kind = window_kind(predicate, indexed_is_left)
    assert kind in (ENDING_BEFORE, STARTING_AFTER)
    with mock.patch.object(sweep, "MAX_CANDIDATE_PAIRS", block):
        plan, candidates = expanded(index, kind, probes)
    assert max(candidates.values(), default=1) == 1  # each candidate once
    assert plan.sizes.sum() == len(candidates)
    # Every candidate satisfies the mask the join no longer evaluates.
    pairs = np.array(sorted(candidates), dtype=np.int64).reshape(-1, 2)
    probe, row = pairs[:, 0], pairs[:, 1]
    operands = [(probes.starts[probe], probes.ends[probe]), (index.starts[row], index.ends[row])]
    if indexed_is_left:
        operands.reverse()
    assert predicate.holds_columns(*operands[0], *operands[1]).all()
    # ... and the candidates are the masked window: every true pair.
    true = {
        (i, j)
        for i, p in enumerate(probe_side)
        for j, r in enumerate(index_side)
        if (active is None or active[j])
        and (predicate.holds(r, p) if indexed_is_left else predicate.holds(p, r))
    }
    assert set(candidates) == true


def counting(predicate, calls):
    """``predicate`` with its column truth function counted in ``calls``."""

    def holds_columns(*columns):
        calls.append(len(columns[0]))
        return predicate.holds_columns(*columns)

    return dataclasses.replace(predicate, holds_columns=holds_columns)


def counted_query(conditions):
    """The query of ``conditions`` and, per condition, its mask calls."""
    calls = [[] for _ in conditions]
    query = IntervalJoinQuery([
        JoinCondition(Term.parse(left), counting(ALLEN_PREDICATES[name], mine), Term.parse(right))
        for (left, name, right), mine in zip(conditions, calls)
    ])
    return query, calls


@pytest.mark.parametrize(
    "conditions, masked",
    [
        # (conditions, which of them a join evaluates as a mask)
        ([("R1", "before", "R2")], []),
        ([("R1", "after", "R2")], []),
        ([("R1", "before", "R2"), ("R2", "after", "R1")], [1]),
        ([("R1", "before", "R2"), ("R2", "before", "R3")], []),
        ([("R1", "after", "R2"), ("R3", "before", "R2"), ("R3", "after", "R4")], []),
    ],
)
def test_census_the_join_never_masks_its_sequence_access_condition(conditions, masked):
    query, calls = counted_query(conditions)
    data = make_dataset(query.relations, 40, seed=5, span=400.0, max_length=30.0)
    rows = {name: data[name].rows for name in query.relations}
    for start_with in query.relations:
        for mine in calls:
            mine.clear()
        tuples, _ = joined(query, rows, start_with)
        assert sum(tuples.values()) > 0
        assert [i for i, mine in enumerate(calls) if mine] == masked, start_with


def test_a_window_whose_keys_and_probes_differ_in_dtype_is_masked():
    # float64 keys against ``object`` probes: ``searchsorted`` would
    # compare them as floats, the mask compares them exactly.
    query, calls = counted_query([("R1", "before", "R2")])
    near = [BIG - 4.0, float(BIG), BIG + 2.0]
    rows = {
        "R1": [Row.make(i, {"I": Interval(BIG + i, BIG + i + 1)}) for i in range(4)],
        "R2": [Row.make(i, {"I": Interval(s, s + 8.0)}) for i, s in enumerate(near)],
    }
    columns = [local.attribute_columns(rows[name], "I").starts.dtype for name in ("R1", "R2")]
    assert columns == [np.dtype(object), np.dtype(np.float64)]
    for start_with in query.relations:
        calls[0].clear()
        tuples, _ = joined(query, rows, start_with)
        assert calls[0], start_with
        assert tuples == Counter(
            (r1.rid, r2.rid)
            for r1 in rows["R1"] for r2 in rows["R2"]
            if r1.interval("I").end < r2.interval("I").start
        )


@st.composite
def sequence_chains(draw):
    """A chain over 2-4 relations, sequence conditions mostly, sometimes
    with a second condition between the last two."""
    names = [f"R{i}" for i in range(draw(st.integers(2, 4)))]
    predicates = st.sampled_from(SEQUENCE_NAMES * 3 + ["overlaps", "during", "meets"])
    conditions = []
    for left, right in zip(names, names[1:]):
        if draw(st.booleans()):
            left, right = right, left
        conditions.append((left, draw(predicates), right))
    if draw(st.booleans()):
        conditions.append((names[-1], draw(predicates), names[-2]))
    return IntervalJoinQuery.parse(conditions)


@settings(max_examples=150, deadline=None)
@given(draw=st.data(), block=st.sampled_from([1, 3, 1 << 18]))
def test_skipping_the_mask_charges_what_masking_it_charged(draw, block):
    query = draw.draw(sequence_chains())
    data = draw.draw(shaped_data(query))
    with mock.patch.object(sweep, "MAX_CANDIDATE_PAIRS", block):
        for start_with in query.relations:
            skipped = joined(query, data, start_with)
            counted = []
            masked = LocalJoiner(query, counted.append, start_with=start_with)
            masked._steps = [step._replace(exact=None) for step in masked._steps]
            tuples = Counter(tuple(row.rid for row in t) for t in masked.join(data))
            assert skipped == (tuples, sum(counted)), (str(query), start_with)
