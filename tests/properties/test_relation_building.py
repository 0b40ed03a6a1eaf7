"""Property-based parity of the column-first relation builder.

``Relation.from_columns`` builds rows straight from columns, the saver
formats a column at a time, and the loader parses a chunk at a time;
each must give exactly what the row-at-a-time path gives:
``Relation(name, [Row.make(...)])``, ``json.dumps(encode_row(row))`` per
line, and rows equal (to the type of every endpoint) after a round trip.
The inputs are where those most easily part: interval and real-valued
attributes side by side, integer, float and past-2**53 endpoints,
zero-length intervals, empty and one-row relations, and rids that are
neither contiguous nor sorted.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schema import Relation, Row
from repro.intervals.interval import Interval
from repro.io import encode_row, load_relation, save_relation
from repro.workloads.distributions import DISTRIBUTIONS
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_intervals,
    generate_relation,
)

BIG = 2**53

#: One attribute's value family.
FAMILIES = {
    "int": st.integers(min_value=-5, max_value=12),
    "float": st.integers(min_value=-10, max_value=24).map(lambda v: v / 4),
    "big": st.integers(min_value=0, max_value=12).map(lambda v: BIG + 1 + 2 * v),
}


@st.composite
def blocks(draw):
    """``(columns, rids, records)``: the builder's input and the same
    rows as attribute mappings, for ``Row.make``."""
    names = draw(
        st.lists(st.sampled_from("abIvz"), min_size=1, max_size=3, unique=True)
    )
    size = draw(st.sampled_from([0, 1, 1, 2, 7, 20]))
    rids = draw(
        st.lists(
            st.integers(min_value=-50, max_value=10**6),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    columns, records = {}, [{} for _ in range(size)]
    for name in names:
        values = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
        if draw(st.booleans()):
            starts = draw(st.lists(values, min_size=size, max_size=size))
            lengths = draw(
                st.lists(st.sampled_from([0, 0, 1, 3]), min_size=size, max_size=size)
            )
            ends = [s + n for s, n in zip(starts, lengths)]
            columns[name] = (starts, ends)
            for record, s, e in zip(records, starts, ends):
                record[name] = Interval(s, e)
        else:
            column = draw(st.lists(values, min_size=size, max_size=size))
            columns[name] = column
            for record, value in zip(records, column):
                record[name] = value
    return columns, rids, records


def column_values(column):
    return [(type(v), v) for v in column.tolist()]


@settings(max_examples=150, deadline=None)
@given(blocks())
def test_builder_matches_row_make(block):
    columns, rids, records = block
    built = Relation.from_columns("R", columns, rids)
    oracle = Relation("R", [Row.make(r, rec) for r, rec in zip(rids, records)])
    assert isinstance(built.rows, tuple)
    # ``repr`` tells an int endpoint from an equal float one: ``1 == 1.0``,
    # but an integer turned into a float has lost its exactness.
    assert repr(built.rows) == repr(oracle.rows)
    assert built.rows == oracle.rows
    assert built.attributes == oracle.attributes
    for name in columns:
        mine, theirs = built.columns(name), oracle.columns(name)
        for side in ("starts", "ends"):
            a, b = getattr(mine, side), getattr(theirs, side)
            assert a.dtype == b.dtype
            assert not a.flags.writeable
            assert column_values(a) == column_values(b)


@settings(max_examples=100, deadline=None)
@given(blocks())
def test_save_bytes_and_round_trip(block):
    columns, rids, _ = block
    relation = Relation.from_columns("R", columns, rids)
    expected = "".join(json.dumps(encode_row(r)) + "\n" for r in relation.rows)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "r.jsonl")
        assert save_relation(relation, path) == len(relation)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == expected
        loaded = load_relation(path, "S")
        assert os.listdir(directory) == ["r.jsonl"]
    assert loaded.name == "S"
    assert loaded.rows == relation.rows
    assert repr(loaded.rows) == repr(relation.rows)
    assert loaded.attributes == relation.attributes


@pytest.mark.parametrize("start_dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("length_dist", sorted(DISTRIBUTIONS))
def test_generate_relation_matches_of_intervals(start_dist, length_dist):
    config = SyntheticConfig(
        n=300,
        start_dist=start_dist,
        length_dist=length_dist,
        t_range=(0.0, 5_000.0),
        length_range=(0.0, 80.0),
        seed=7,
    )
    built = generate_relation("R", config)
    oracle = Relation.of_intervals("R", generate_intervals(config))
    assert repr(built.rows) == repr(oracle.rows)
    mine, theirs = built.columns("I"), oracle.columns("I")
    assert mine.starts.dtype == theirs.starts.dtype == np.float64
    assert np.array_equal(mine.starts, theirs.starts)
    assert np.array_equal(mine.ends, theirs.ends)
