"""Differential property test for the reducer-local join kernel.

The per-row backtracking join that :class:`repro.core.local.LocalJoiner`
used to be survives here, as :func:`oracle_join`: brute-force candidate
sets (no tree, no bisect, no numpy) under the same normative counting
rule.  The array kernel must produce the same tuple multiset **and**
charge the same number of comparisons, for random tree and cyclic
queries over 2-4 multi-attribute relations, all 13 predicates, every
``start_with``, degenerate / touching / duplicated endpoints, integers
beyond 2**53, mixed int/float endpoints, empty and one-row relations and
more blocks than rows.  The grid reducer's mask ownership rule must
agree with the per-tuple rule it replaced on every cell of the grid.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import column_values, run_kernel

from repro.core.algorithms.gen_matrix import GridSpec, _GridJoinReducer
from repro.core.graph import JoinGraph
from repro.core.local import LocalJoiner
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Row
from repro.errors import UnsatisfiableQueryError
from repro.intervals import sweep
from repro.intervals.allen import ALLEN_PREDICATES
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning


def oracle_join(query, rows_by_relation, start_with=None):
    """``(Counter of rid tuples, comparisons charged)`` by the per-row
    loop: one candidate at a time, conditions short-circuiting in
    ``query.conditions`` order."""
    relations = query.relations
    if any(not rows_by_relation.get(name) for name in relations):
        return Counter(), 0
    out, charged, binding = Counter(), 0, {}

    def holds(cond):
        return cond.predicate.holds(
            binding[cond.left.relation].interval(cond.left.attribute),
            binding[cond.right.relation].interval(cond.right.attribute),
        )

    if len(relations) == 2:
        # One per pair satisfying the first condition, then one per
        # further condition evaluated.
        primary, *rest = query.conditions
        for binding[relations[0]] in rows_by_relation[relations[0]]:
            for binding[relations[1]] in rows_by_relation[relations[1]]:
                if holds(primary):
                    charged += 1
                    for cond in rest:
                        charged += 1
                        if not holds(cond):
                            break
                    else:
                        out[tuple(binding[n].rid for n in relations)] += 1
        return out, charged

    order = LocalJoiner(query, start_with=start_with)._binding_order

    def step_conditions(k):
        bound = set(order[: k + 1])
        return [
            c for c in query.conditions
            if {c.left.relation, c.right.relation} <= bound
            and order[k] in (c.left.relation, c.right.relation)
        ]

    def candidates(k):
        # First colocation condition on the index attribute: the closed
        # intersection set; else the last sequence condition on it: the
        # strict prefix / suffix; else every row.
        attribute = query.attributes_of(order[k])[0]
        rows = chosen = rows_by_relation[order[k]]
        for cond in step_conditions(k):
            mine, other = cond.left, cond.right
            if mine.relation != order[k]:
                mine, other = other, mine
            if mine.attribute != attribute:
                continue
            probe = binding[other.relation].interval(other.attribute)
            mine_of = [(r, r.interval(attribute)) for r in rows]
            if cond.is_colocation:
                return [r for r, iv in mine_of if iv.intersects(probe)]
            if (cond.predicate.enforces_left_first() if mine is cond.left
                    else cond.predicate.enforces_right_first()):
                chosen = [r for r, iv in mine_of if iv.end < probe.start]
            else:
                chosen = [r for r, iv in mine_of if iv.start > probe.end]
        return chosen

    def extend(k):
        nonlocal charged
        if k == len(order):
            out[tuple(binding[n].rid for n in relations)] += 1
            return
        for binding[order[k]] in candidates(k):
            for cond in step_conditions(k):
                charged += 1
                if not holds(cond):
                    break
            else:
                extend(k + 1)

    extend(0)
    return out, charged


# ----------------------------------------------------------------------
# Generators.
# ----------------------------------------------------------------------

# All thirteen, the permissive ones more often (or nothing would join).
PREDICATES = sorted(ALLEN_PREDICATES) + [
    "overlaps", "overlapped_by", "during", "contains", "before", "after",
] * 2
ATTRIBUTES = ("I", "J")
BIG = 2**53 + 1


@st.composite
def queries(draw):
    """A random tree over 2-4 relations, sometimes with extra (cycle or
    parallel) edges, each end on one of two interval attributes."""
    names = [f"R{i}" for i in range(draw(st.integers(2, 4)))]
    edges = [(names[draw(st.integers(0, i - 1))], names[i])
             for i in range(1, len(names))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        left = draw(st.sampled_from(names))
        edges.append(
            (left, draw(st.sampled_from([n for n in names if n != left])))
        )
    single = draw(st.booleans())
    conditions = []
    for left, right in draw(st.permutations(edges)):
        if draw(st.booleans()):
            left, right = right, left
        terms = [
            f"{name}.{'I' if single else draw(st.sampled_from(ATTRIBUTES))}"
            for name in (left, right)
        ]
        conditions.append(
            (terms[0], draw(st.sampled_from(PREDICATES)), terms[1])
        )
    return IntervalJoinQuery.parse(conditions)


def random_interval(rng, flavour):
    """Small integer grids make equal, touching and zero-length
    endpoints common; ``big`` shifts them past 2**53, where float64
    would merge neighbours; ``mixed`` adds halves as floats."""
    start = rng.randint(0, 6)
    end = start + rng.choice([0, 1, 2, 3, 4, 6])
    if flavour == "big":
        return Interval(BIG + start, BIG + end)
    if flavour == "mixed" and rng.random() < 0.5:
        return Interval(start + 0.5, end + 0.5)
    if flavour == "bigmixed":
        shift = rng.choice([BIG, float(BIG - 1)])
        return Interval(shift + start, shift + end)
    return Interval(start, end)


@st.composite
def datasets(draw, query):
    """Hypothesis picks the flavour and the sizes (sometimes empty or
    one row); a generator it seeds fills in the endpoints, dense enough
    that many joins are non-empty, which hypothesis' own bias towards
    small draws would not give."""
    flavour = draw(st.sampled_from(["int", "int", "big", "mixed", "bigmixed"]))
    rng = draw(st.randoms(use_true_random=True))
    data = {}
    for name in query.relations:
        size = draw(st.sampled_from([12, 12, 10, 8, 8, 1, 0]))
        data[name] = [
            Row.make(
                rid,
                {attr: random_interval(rng, flavour) for attr in ATTRIBUTES},
            )
            for rid in range(size)
        ]
    return flavour, data


@st.composite
def cases(draw):
    query = draw(queries())
    flavour, data = draw(datasets(query))
    return query, flavour, data


def kernel_join(query, data, start_with, accept=None):
    counted = []
    joiner = LocalJoiner(query, counted.append, start_with=start_with)
    tuples = Counter(
        tuple(row.rid for row in rows) for rows in joiner.join(data, accept)
    )
    assert len(counted) <= 1  # charged once per join, never a zero
    return tuples, sum(counted)


# ----------------------------------------------------------------------
# Properties.
# ----------------------------------------------------------------------

@settings(max_examples=250, deadline=None)
@given(case=cases(), block=st.sampled_from([1, 2, 7, 1 << 18]))
def test_kernel_equals_per_row_oracle(case, block):
    query, _, data = case
    with mock.patch.object(sweep, "MAX_CANDIDATE_PAIRS", block):
        for start_with in (None, *query.relations):
            assert kernel_join(query, data, start_with) == oracle_join(
                query, data, start_with
            ), start_with


def grid_partitionings(draw, flavour, dimensions):
    """One partitioning per dimension over the generated range; beyond
    2**53 the boundaries are integers float64 cannot hold."""
    shift = BIG - 1 if flavour in ("big", "bigmixed") else 0
    out = []
    for _ in range(dimensions):
        inner = draw(st.sets(st.integers(1, 17), max_size=4))
        out.append(
            Partitioning(tuple(shift + b for b in [0, *sorted(inner), 18]))
        )
    return out


@settings(max_examples=120, deadline=None)
@given(case=cases(), draw=st.data())
def test_mask_ownership_equals_per_tuple_rule_on_every_cell(case, draw):
    query, flavour, data = case
    try:
        graph = JoinGraph(query)
    except UnsatisfiableQueryError:
        return
    grid = GridSpec(
        graph, grid_partitionings(draw.draw, flavour, len(graph.components))
    )
    reducer = _GridJoinReducer(query, grid)
    by_rid = {name: {row.rid: row for row in rows} for name, rows in data.items()}
    everything, _ = oracle_join(query, data)
    values = [(name, row) for name, rows in data.items() for row in rows]
    # Each relation routed on its first query term, carrying the others.
    layouts = {
        name: tuple(term for term in query.terms if term.relation == name)
        for name in data
    }
    produced = Counter()
    cells = [()]
    for parts in grid.partitionings:
        cells = [cell + (i,) for cell in cells for i in range(len(parts))]
    for cell in cells:
        def owns(rids):
            rid_of = dict(zip(query.relations, rids))
            return all(
                grid.partitioning_of(dim).locate(
                    max(
                        by_rid[term.relation][rid_of[term.relation]]
                        .interval(term.attribute).start
                        for term in terms
                    )
                ) == cell[dim]
                for dim, terms in reducer.component_terms.items()
            )

        records, _ = run_kernel(reducer, column_values(values, layouts, key=cell))
        got = Counter(tuple(row.rid for row in rows) for rows in records)
        want = Counter(
            {rids: n for rids, n in everything.items() if owns(rids)}
        )
        assert got == want, cell
        produced += got
    assert produced == everything  # the cells own each tuple exactly once
