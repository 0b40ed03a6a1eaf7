"""The grid reducer's ownership mask, :func:`cell_owner`, against the
formula it replaced: per dimension, the largest of the component's
members' int64 grid coordinates (``np.maximum.reduce`` over the gathered
columns) equals the cell's coordinate.

Hypothesis draws the intervals, the bindings and 1-9 partitions per
dimension (more partitions than rows too); the grids have singleton
components only, a multi-term component (the one an anchored join
anchors on) beside singletons, two multi-term components, and a
multi-attribute component, and every cell of the grid is checked, so
every dimension's coordinate varies — the anchor's included.  The
cells hold arbitrary rows, not routed ones, so most of them keep a mask.

A returned mask equals the formula; ``None`` — no dimension can fail —
implies the formula keeps every binding the cell's columns can form
(their whole cross product as well as the drawn bindings).  With the
anchored component named, both are checked on the bindings with at
least one local anchor, which is what an anchored join yields.
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


def every_binding(query, columns):
    """The cross product of the cell's rows: every binding it can form."""
    sizes = [
        len(columns[next(t for t in query.terms if t.relation == relation)])
        for relation in query.relations
    ]
    grid = np.meshgrid(*(np.arange(n) for n in sizes), indexing="ij")
    return {relation: axis.ravel() for relation, axis in zip(query.relations, grid)}


def has_local_anchor(cell, dim, terms, partitioning, columns, binding):
    """Whether each binding binds a row of an anchor term at the cell."""
    return np.logical_or.reduce([
        partitioning.locate_array(columns[t].starts)[binding[t.relation]] == cell[dim]
        for t in terms
    ])


@pytest.mark.parametrize("name", sorted(QUERIES))
@settings(max_examples=60, deadline=None)
@given(draw=st.data())
def test_owns_equals_the_maximum_reduce_formula_on_every_cell(name, draw):
    query, grid, columns, binding = draw.draw(grids(name))
    reducer = _GridJoinReducer(query, grid)
    terms = reducer.component_terms
    anchor = reducer._anchor_component
    assert any(len(ts) > 1 for ts in terms.values()) == (name != "singletons")
    assert (anchor is None) == (name == "singletons")
    bindings = [binding, every_binding(query, columns)]
    for cell in itertools.product(*(range(len(p)) for p in grid.partitionings)):
        for anchored in {None, anchor}:
            owns, located = cell_owner(cell, terms, grid.partitionings, columns, anchored)
            for dim, ts in terms.items():
                for t in ts:
                    want = grid.partitionings[dim].locate_array(columns[t].starts)
                    assert np.array_equal(located[t], want)
            for block in bindings:
                want = old_owns(cell, terms, grid.partitionings, columns, block)
                kept = np.ones(len(want), dtype=bool)
                if anchored is not None:
                    kept = has_local_anchor(
                        cell, anchored, terms[anchored],
                        grid.partitionings[anchored], columns, block,
                    )
                if owns is None:
                    assert want[kept].all(), (cell, anchored)
                    continue
                got = owns(block)
                assert got.dtype == bool
                assert np.array_equal(got[kept], want[kept]), (cell, anchored)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_a_cell_with_a_stray_row_keeps_its_mask(name):
    """A row starting left of the cell on a singleton dimension, or right
    of it on the anchored one, makes that dimension able to fail."""
    query = IntervalJoinQuery.parse(QUERIES[name])
    graph = JoinGraph(query)
    grid = GridSpec(graph, [Partitioning.uniform(0.0, 100.0, 4)] * len(graph.components))
    reducer = _GridJoinReducer(query, grid)
    terms, anchor = reducer.component_terms, reducer._anchor_component
    cell = tuple(2 for _ in grid.partitionings)
    at_cell = np.array([55.0, 60.0])
    columns = {t: SortedColumns(at_cell, at_cell + 1.0) for t in query.terms}
    owns, _ = cell_owner(cell, terms, grid.partitionings, columns, anchor)
    multi = [dim for dim, ts in terms.items() if len(ts) > 1 and dim != anchor]
    assert (owns is None) == (not multi)
    for dim, ts in terms.items():
        stray = np.array([55.0, 10.0 if len(ts) == 1 else 90.0])
        moved = {**columns, ts[0]: SortedColumns(stray, stray + 1.0)}
        owns, _ = cell_owner(cell, terms, grid.partitionings, moved, anchor)
        assert owns is not None, dim
