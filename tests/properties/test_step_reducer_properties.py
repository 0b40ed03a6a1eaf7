"""Differential property test for the cascade's step reducer.

``cascade._StepJoinReducer`` joins partial tuples with one new relation
over endpoint columns: the routing condition through the pair kernel,
every residual condition as a mask over the survivors.  The oracle here
is the nested loop it replaced — one ``(partial, new row)`` pair at a
time, conditions short-circuiting — emitting the same records and
charging ``work:comparisons`` by the two-relation rule of
``docs/api.md``: one per pair satisfying the routing condition, then one
per further condition evaluated.  Random steps bind one to three
members (with residual conditions: a triangle, a 4-cycle) under every
routing predicate and orientation, on small integer grids, beyond 2**53
and on mixed int/float endpoints; the records form and the columnar form
— the bound side's other members carried as further terms — must both
match, and agree with each other record for record in order.

The five cascade / FSTC sizing queries of ISSUE 20 are pinned below as
``(tuples, work:comparisons, shuffled_records)``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.integration.test_pinned_counters import observed
from tests.properties.test_local_join_differential import (
    PREDICATES,
    random_interval,
)

from repro.columnar.batch import ColumnValues, Terms, endpoint_column
from repro.core.algorithms.cascade import _StepJoinReducer
from repro.core.algorithms.routing import BOUND_SIDE, NEW_SIDE
from repro.core.query import JoinCondition, Term
from repro.core.schema import Row
from repro.mapreduce.counters import Counters
from repro.mapreduce.task import ReduceContext

NEW = "N"


def oracle_step(partials, new_rows, routing, residual):
    """``(records, comparisons charged)`` by the nested loop."""
    records, charged = [], 0
    for partial in partials:
        members = dict(partial)
        for members[NEW] in new_rows:

            def holds(cond):
                return cond.predicate.holds(
                    members[cond.left.relation].interval(cond.left.attribute),
                    members[cond.right.relation].interval(cond.right.attribute),
                )

            if not holds(routing):
                continue
            charged += 1
            for cond in residual:
                charged += 1
                if not holds(cond):
                    break
            else:
                records.append(partial + ((NEW, members[NEW]),))
    return records, charged


@st.composite
def steps(draw):
    """One cascade step: ``(routing, step conditions, shuffled values,
    flavour)`` — the values a reducer group would hold, both sides
    interleaved."""
    bound = [f"R{i}" for i in range(draw(st.integers(1, 3)))]

    def condition():
        terms = [draw(st.sampled_from(bound)), NEW]
        if draw(st.booleans()):
            terms.reverse()
        return JoinCondition.parse(
            terms[0], draw(st.sampled_from(PREDICATES)), terms[1]
        )

    routing = condition()
    conditions = [
        condition() for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2])))
    ]
    conditions.insert(draw(st.integers(0, len(conditions))), routing)

    flavour = draw(st.sampled_from(["int", "int", "big", "mixed", "bigmixed"]))
    rng = draw(st.randoms(use_true_random=True))

    def rows(count):
        return [
            Row.make(rid, {"I": random_interval(rng, flavour)})
            for rid in range(count)
        ]

    sizes = st.sampled_from([12, 12, 10, 10, 8, 8, 1, 0])
    members = {name: rows(6) for name in bound}
    values = [
        (BOUND_SIDE, tuple((name, rng.choice(members[name])) for name in bound))
        for _ in range(draw(sizes))
    ] + [(NEW_SIDE, (NEW, row)) for row in rows(draw(sizes))]
    return routing, conditions, draw(st.permutations(values)), flavour


class _Store:
    """The payload store of a group whose gids are its value positions."""

    def __init__(self, values):
        self.payloads = np.fromiter(
            (payload for _, payload in values), dtype=object, count=len(values)
        )

    def take(self, gids):
        return self.payloads[gids]


def run_form(reducer, values):
    counters = Counters()
    if isinstance(values, ColumnValues):  # the columnar form: the kernel
        records = reducer.format(reducer.kernel(0, values, counters), values.store)
    else:
        context = ReduceContext(counters, task_index=0)
        reducer.reduce(0, values, context)
        records = context.drain()
    # Charged once with the total, the counter never created at zero.
    assert counters.as_dict().get("work", {}).get("comparisons") != 0
    return records, counters.value("work", "comparisons")


def column_values(reducer, values):
    """The group as the columnar plane shuffles it: per value its routing
    interval's endpoints and, on the bound side, its other members'
    terms — float64 where exact, ``object`` otherwise."""
    terms = {
        term.relation: term.attribute
        for term in (reducer.routing.left, reducer.routing.right)
    }
    bound = next(name for name in terms if name != NEW)
    partial = next((payload for side, payload in values if side == BOUND_SIDE), ())
    others = tuple(Term(name, terms[bound]) for name, _ in partial if name != bound)

    def interval(side, payload, term):
        if side == BOUND_SIDE:
            return dict(payload)[term.relation].interval(term.attribute)
        # A new-side value carries no further terms: its slots are never read.
        return payload[1].interval(terms[NEW])

    def columns(term):
        intervals = [interval(side, payload, term) for side, payload in values]
        return (
            endpoint_column([iv.start for iv in intervals]),
            endpoint_column([iv.end for iv in intervals]),
        )

    starts, ends = columns(Term(bound, terms[bound]))
    further = [columns(term) for term in others]
    return ColumnValues(
        key=0,
        gids=np.arange(len(values), dtype=np.int64),
        starts=starts,
        ends=ends,
        tag_codes=np.array(
            [side == NEW_SIDE for side, _ in values], dtype=np.int16
        ),
        tags=(BOUND_SIDE, NEW_SIDE),
        store=_Store(values),
        terms=Terms(
            (others, ()),
            *(np.stack([c[i] for c in further], axis=1) for i in (0, 1)),
        ) if others else None,
    )


@settings(max_examples=400, deadline=None)
@given(step=steps())
def test_step_reducer_equals_the_nested_loop(step):
    routing, conditions, values, flavour = step
    reducer = _StepJoinReducer(NEW, routing, conditions, {})
    residual = [cond for cond in conditions if cond is not routing]
    partials = [payload for side, payload in values if side == BOUND_SIDE]
    new_rows = [payload[1] for side, payload in values if side == NEW_SIDE]
    want, charged = oracle_step(partials, new_rows, routing, residual)

    records, records_charged = run_form(reducer, values)
    assert Counter(records) == Counter(want)
    assert records_charged == charged

    # Every step runs columnar, residual conditions and inexact
    # endpoints included.
    assert run_form(reducer, column_values(reducer, values)) == (records, charged)


#: ``generate_relation(name, SyntheticConfig(n, t_range=(0, T),
#: length_range=(1, 100), seed=i))`` for the i-th relation, 8 partitions:
#: algorithm, n, T, conditions -> (tuples, comparisons, shuffled).
SIZING = {
    "colocation-chain": (
        "two_way_cascade", 12_000, 300_000,
        [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
        (26_998, 43_183, 52_225),
    ),
    "before-chain": (
        "two_way_cascade", 60, 10_000,
        [("R1", "before", "R2"), ("R2", "before", "R3")],
        (36_017, 37_873, 3_711),
    ),
    "colocation-triangle": (
        "two_way_cascade", 6_000, 100_000,
        [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3"),
         ("R1", "overlaps", "R3")],
        (9_442, 71_544, 30_274),
    ),
    "hybrid": (
        "two_way_cascade", 300, 20_000,
        [("R1", "overlaps", "R2"), ("R2", "before", "R3")],
        (20_943, 21_089, 1_690),
    ),
    "fstc-hybrid": (
        "fstc", 300, 20_000,
        [("R1", "before", "R2"), ("R2", "overlaps", "R3")],
        (18_492, 58_837, 43_979),
    ),
}


@pytest.mark.parametrize("case", sorted(SIZING))
def test_sizing_queries_are_pinned(case):
    *shape, pinned = SIZING[case]
    assert observed(*shape)[:3] == pinned
