"""Differential property test for FCTS's matrix reducer.

``hybrid._ComponentJoinReducer`` cross-products one cell's component
partials and filters them by the cross-component conditions, as a
kernel over the group's term columns.  The oracle here is the
depth-first loop it replaced: one partial per dim at a time, in value
order, every condition between the dims bound so far re-evaluated for
each new partial and short-circuiting, one ``work:comparisons`` per
condition evaluated.  Random cells bind two or three dims of one or two
relations each, on small integer grids, beyond 2**53 and on mixed
int/float endpoints; the kernel must emit the oracle's tuples in the
oracle's order and charge the same comparisons.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import column_values, run_kernel
from tests.properties.test_local_join_differential import (
    PREDICATES,
    random_interval,
)

from repro.core.algorithms.hybrid import _ComponentJoinReducer
from repro.core.query import JoinCondition, Term
from repro.core.schema import Row


def oracle(query, conditions, dims, values):
    """``(tuples, comparisons charged)`` by the depth-first loop."""
    partials = [[record for dim, record in values if dim == d] for d in range(dims)]
    tuples, charged, members = [], 0, {}
    if any(not group for group in partials):
        return tuples, charged

    def extend(dim):
        nonlocal charged
        if dim == dims:
            tuples.append(tuple((name, members[name]) for name in query.relations))
            return
        for record in partials[dim]:
            members.update(record)
            for cond in conditions:
                if cond.left.relation in members and cond.right.relation in members:
                    charged += 1
                    if not cond.predicate.holds(
                        members[cond.left.relation].interval(cond.left.attribute),
                        members[cond.right.relation].interval(cond.right.attribute),
                    ):
                        break
            else:
                extend(dim + 1)
            for relation, _ in record:
                members.pop(relation)

    extend(0)
    return tuples, charged


@st.composite
def cells(draw):
    """One cell: the dims' relations, cross conditions between them and
    the shuffled ``(dim, partial)`` values, interleaved."""
    dims = draw(st.integers(2, 3))
    members = [[f"R{d}{k}" for k in range(draw(st.integers(1, 2)))] for d in range(dims)]
    relations = [name for names in members for name in names]
    dim_of = {name: d for d, names in enumerate(members) for name in names}

    def condition():
        left = draw(st.sampled_from(relations))
        right = draw(st.sampled_from([r for r in relations if dim_of[r] != dim_of[left]]))
        return JoinCondition.parse(left, draw(st.sampled_from(PREDICATES)), right)

    conditions = [condition() for _ in range(draw(st.integers(1, 3)))]
    flavour = draw(st.sampled_from(["int", "int", "big", "mixed", "bigmixed"]))
    rng = draw(st.randoms(use_true_random=True))
    values = [
        (d, tuple((name, Row.make(rid, {"I": random_interval(rng, flavour)}))
                  for name in members[d]))
        for d in range(dims)
        for rid in range(draw(st.sampled_from([0, 1, 3, 5, 8])))
    ]
    return members, conditions, draw(st.permutations(values))


@settings(max_examples=400, deadline=None)
@given(cell=cells())
def test_the_kernel_equals_the_depth_first_loop(cell):
    members, conditions, values = cell
    # Output order: every relation, the last dim's first.
    query = SimpleNamespace(relations=[n for names in members[::-1] for n in names])
    reducer = _ComponentJoinReducer(query, conditions, members)
    want, charged = oracle(query, conditions, len(members), values)

    # Each dim's partials are routed on their right-most member (no
    # single term) and carry every member's term.
    layouts = {d: (None, *(Term(name, "I") for name in names)) for d, names in enumerate(members)}
    got, counters = run_kernel(
        reducer, column_values(values, layouts, key=(0,) * len(members))
    )
    assert got == want
    assert counters.value("work", "comparisons") == charged
    assert counters.as_dict().get("work", {}).get("comparisons") != 0
