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
and on mixed int/float endpoints; the kernel, fed the group as the
columnar plane shuffles it — the bound side's other members carried as
further terms — must match.

The five cascade / FSTC sizing queries of ISSUE 20 are pinned below as
``(tuples, work:comparisons, shuffled_records)``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import column_values, run_kernel
from tests.integration.test_pinned_counters import observed
from tests.properties.test_local_join_differential import (
    PREDICATES,
    random_interval,
)

from repro.core.algorithms.cascade import _StepJoinReducer
from repro.core.algorithms.routing import BOUND_SIDE, NEW_SIDE
from repro.core.query import JoinCondition, Term
from repro.core.schema import Row

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


def layouts(reducer, values):
    """The terms each side's values carry: the bound side is routed on
    the routing condition's bound member and carries its other members,
    the new side is routed on the new relation."""
    terms = {
        term.relation: term.attribute
        for term in (reducer.routing.left, reducer.routing.right)
    }
    bound = next(name for name in terms if name != NEW)
    partial = next((payload for side, payload in values if side == BOUND_SIDE), ())
    others = tuple(Term(name, terms[bound]) for name, _ in partial if name != bound)
    return {
        BOUND_SIDE: (Term(bound, terms[bound]), *others),
        NEW_SIDE: (Term(NEW, terms[NEW]),),
    }


@settings(max_examples=400, deadline=None)
@given(step=steps())
def test_step_reducer_equals_the_nested_loop(step):
    routing, conditions, values, flavour = step
    partials = [payload for side, payload in values if side == BOUND_SIDE]
    bound = [name for name, _ in partials[0]] if partials else []
    reducer = _StepJoinReducer(NEW, routing, conditions, {}, bound)
    residual = [cond for cond in conditions if cond is not routing]
    new_rows = [payload[1] for side, payload in values if side == NEW_SIDE]
    want, charged = oracle_step(partials, new_rows, routing, residual)

    # Residual conditions and inexact endpoints included.
    records, counters = run_kernel(reducer, column_values(values, layouts(reducer, values)))
    assert Counter(records) == Counter(want)
    assert counters.value("work", "comparisons") == charged
    # Charged once with the total, the counter never created at zero.
    assert counters.as_dict().get("work", {}).get("comparisons") != 0


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
