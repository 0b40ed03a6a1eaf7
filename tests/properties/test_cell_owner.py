"""The grid reducer's ownership mask, :func:`cell_owner`, against the
formula it replaced: per dimension, the largest of the component's
members' int64 grid coordinates (``np.maximum.reduce`` over the gathered
columns) equals the cell's coordinate.

Hypothesis draws the intervals, the bindings and 1-9 partitions per
dimension (more partitions than rows too); the grids have singleton
components only, a multi-term component (the one an anchored join
anchors on) beside singletons, and a multi-attribute component, and
every cell of the grid is checked, so every dimension's coordinate
varies — the anchor's included.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.gen_matrix import GridSpec, _GridJoinReducer, cell_owner
from repro.core.graph import JoinGraph
from repro.core.query import IntervalJoinQuery
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import SortedColumns

QUERIES = {
    "singletons": [("R1", "before", "R2"), ("R2", "before", "R3")],
    "anchored": [("R1", "overlaps", "R2"), ("R2", "before", "R3")],
    "two_multi": [("R1", "overlaps", "R2"), ("R2", "before", "R3"), ("R3", "during", "R4")],
    "multi_attribute": [("R1.I", "overlaps", "R2.J"), ("R2.I", "after", "R3.I")],
}


def old_owns(cell, component_terms, partitionings, columns, binding):
    """The formula :func:`cell_owner` replaced."""
    coordinate = {
        term: partitionings[dim].locate_array(columns[term].starts)
        for dim, terms in component_terms.items()
        for term in terms
    }
    keep = True
    for dim, terms in component_terms.items():
        rightmost = np.maximum.reduce(
            [coordinate[t][binding[t.relation]] for t in terms]
        )
        keep = keep & (rightmost == cell[dim])
    return keep


@st.composite
def grids(draw, name):
    query = IntervalJoinQuery.parse(QUERIES[name])
    graph = JoinGraph(query)
    partitionings = [
        Partitioning.uniform(0.0, 100.0, draw(st.integers(1, 9)))
        for _ in graph.components
    ]
    grid = GridSpec(graph, partitionings)
    columns, binding = {}, {}
    size = draw(st.integers(0, 30))
    for relation in query.relations:
        rows = draw(st.integers(1, 8))
        for term in (t for t in query.terms if t.relation == relation):
            starts = draw(st.lists(st.floats(-10.0, 110.0), min_size=rows, max_size=rows))
            starts = np.array(starts, dtype=np.float64)
            columns[term] = SortedColumns(starts, starts + 1.0)
        binding[relation] = np.array(
            draw(st.lists(st.integers(0, rows - 1), min_size=size, max_size=size)),
            dtype=np.int64,
        )
    return query, grid, columns, binding


@pytest.mark.parametrize("name", sorted(QUERIES))
@settings(max_examples=60, deadline=None)
@given(draw=st.data())
def test_owns_equals_the_maximum_reduce_formula_on_every_cell(name, draw):
    query, grid, columns, binding = draw.draw(grids(name))
    reducer = _GridJoinReducer(query, grid)
    terms = reducer.component_terms
    assert any(len(ts) > 1 for ts in terms.values()) == (name != "singletons")
    for cell in itertools.product(*(range(len(p)) for p in grid.partitionings)):
        owns = cell_owner(cell, terms, grid.partitionings, columns)
        got = owns(binding)
        want = old_owns(cell, terms, grid.partitionings, columns, binding)
        assert got.dtype == bool
        assert np.array_equal(got, np.broadcast_to(want, got.shape)), cell

