"""Property-based validation of the crossing-set finder.

The finder (tree AC / backtracking over presence patterns with the
late-escape condition, all of it on endpoint columns) must agree with a
brute-force enumeration of the Section-5 definitions on random queries
and random interval layouts — this is the component RCCIS's correctness
hinges on.  The layouts are the degenerate ones: integer endpoints, so
touching, zero-length and duplicated intervals and endpoints exactly on
a partition boundary are common; sides large enough that a dense
``n1 x n2`` support would be tens of thousands of cells; and endpoints
beyond 2**53, which only ``object`` columns hold exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.crossing import CrossingSetFinder
from repro.intervals.allen import ALLEN_PREDICATES
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning
from repro.intervals.sets import normalize_conditions

from tests.core.test_crossing import brute_force_replicable, columns_of

PREDICATES = sorted(ALLEN_PREDICATES)
#: Predicates that compose with themselves: a cycle of random picks out
#: of all thirteen is almost never satisfiable, one out of these often is.
COMPOSABLE = ["contains", "during", "overlapped_by", "overlaps"]
PARTITION = 1

#: shape -> (conditions, fewest and most intervals per relation R1, R2,
#: ...).  The brute force is exponential in the relation count, so the
#: sides grow where it is not: ``wide_chain`` always has more than
#: 128 x 128 candidate pairs on its R1-R2 edge (a 2-relation query needs
#: no support at all — its only patterns with a late escape are single
#: relations).  ``tailed_triangle`` is the smallest query with a *cyclic
#: present pattern*: with R4 absent the triangle R1-R2-R3 is solved by
#: backtracking (the full triangle alone has no late escape, and its
#: 2-subsets are single edges).
CHAIN = [("R1", "R2"), ("R2", "R3")]
TRIANGLE = CHAIN + [("R1", "R3")]
SMALL = (0, 12)
SHAPES = {
    "edge": ([("R1", "R2")], [(0, 150)] * 2),
    "chain": (CHAIN, [SMALL] * 3),
    "wide_chain": (CHAIN, [(130, 150), (130, 150), (0, 6)]),
    "star": ([("R1", "R2"), ("R1", "R3")], [SMALL] * 3),
    "triangle": (TRIANGLE, [SMALL] * 3),
    "tailed_triangle": (TRIANGLE + [("R3", "R4")], [SMALL] * 4),
}


@st.composite
def query_and_intervals(draw):
    """A random query shape with random predicates, plus random intervals
    intersecting the middle partition of ``[base, base + 60)`` cut in
    three — ``base`` either 0 or 2**53."""
    edges, sizes = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    palette = draw(st.sampled_from([PREDICATES, COMPOSABLE]))
    conditions = [
        (left, draw(st.sampled_from(palette)), right) for left, right in edges
    ]
    relations = sorted({name for edge in edges for name in edge})
    base = draw(st.sampled_from([0, 2**53]))
    partitioning = Partitioning((base, base + 20, base + 40, base + 60))
    intervals = {}
    for name, (fewest, most) in zip(relations, sizes):
        # The size is drawn first: a bare ``max_size`` averages a handful.
        size = draw(st.integers(min_value=fewest, max_value=most))
        raw = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=5, max_value=40),
                    st.integers(min_value=0, max_value=25),
                ),
                min_size=size,
                max_size=size,
            )
        )
        # Ends are pulled up to the partition's left boundary (20), so
        # every interval intersects the partition, as a reducer's does.
        intervals[name] = [
            Interval(base + start, base + max(start + length, 20))
            for start, length in raw
        ]
    return relations, conditions, partitioning, intervals


@given(query_and_intervals())
@settings(max_examples=150, deadline=None)
def test_finder_agrees_with_brute_force(case):
    relations, conditions, partitioning, intervals = case
    normalized = list(normalize_conditions(conditions))
    finder = CrossingSetFinder(relations, normalized, partitioning, PARTITION)
    masks = finder.replicable(columns_of(intervals))
    expected = brute_force_replicable(
        relations, normalized, partitioning, PARTITION, intervals
    )
    for name in relations:
        got = [bool(x) for x in masks[name]]
        assert got == expected[name], (conditions, name, intervals)
