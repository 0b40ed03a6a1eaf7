"""The cyclic collector around a run and a relation build.

A run's pairs and tuples, and a relation's rows, are acyclic, so no
collection may start while they are built, nor when the pause ends: the
outermost pause moves them straight into the oldest generation, where
only a full collection walks them.  These tests count the collections
that *start* inside the call (a ``gc.callbacks`` hook) and check the
guards — frozen objects stay frozen, cycles are still freed, and an
inner or found-off pause changes nothing.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.algorithms.pasm import PASM
from repro.core.executor import execute
from repro.core.planner import ALGORITHMS
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Relation
from repro.gc_pause import collector_paused

from tests.conftest import make_dataset

TWO_WAY = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)

#: One query each algorithm accepts, and rows per relation enough for
#: at least 10,000 output tuples (an algorithm missing here fails).
CASES = {
    "two_way": (TWO_WAY, 500),
    "two_way_cascade": (SEQUENCE, 60),
    "all_replicate": (SEQUENCE, 60),
    "rccis": (COLOCATION, 170),
    "all_matrix": (SEQUENCE, 60),
    "all_seq_matrix": (HYBRID, 90),
    "pasm": (HYBRID, 90),
    "gen_matrix": (HYBRID, 90),
    "fcts": (HYBRID, 90),
    "fstc": (HYBRID, 90),
}


def _collections_started(call):
    """``call()``'s result and the generations of the collections that
    started while it ran, counted from an empty young generation."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        result = call()
    finally:
        gc.callbacks.remove(hook)
    return result, started


def _in_generation(obj, generation):
    return any(o is obj for o in gc.get_objects(generation=generation))


@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_no_collection_starts_inside_execute(name, executor):
    query, rows = CASES[name]
    data = make_dataset(query.relations, rows, seed=37)
    result, started = _collections_started(
        lambda: execute(
            query, data, algorithm=name, num_partitions=4,
            executor=executor, workers=2,
        )
    )
    assert len(result.tuples) >= 10_000
    assert started == []
    assert gc.isenabled()


def test_no_collection_starts_inside_a_relation_build():
    n = 20_000
    starts = np.arange(n, dtype=float)

    def blocks():
        for lo in range(0, n, 5_000):
            cut = starts[lo:lo + 5_000]
            yield {"I": (cut, cut + 1.0), "v": np.arange(len(cut))}, None

    relation, started = _collections_started(
        lambda: Relation.from_column_blocks("R", blocks())
    )
    assert len(relation) == n
    assert started == []


def test_objects_the_caller_froze_stay_frozen():
    # Watched by identity, not through gc.get_freeze_count(): other
    # frozen objects may die by reference count during the run.  Frozen
    # objects are not listed by gc.get_objects().
    data = make_dataset(HYBRID.relations, 20, seed=37)
    sentinel = [object()]
    gc.freeze()
    try:
        assert not any(obj is sentinel for obj in gc.get_objects())
        execute(HYBRID, data, algorithm="pasm", num_partitions=4)
        assert not any(obj is sentinel for obj in gc.get_objects())
        gc.collect()
        with collector_paused():
            marker = []
        assert _in_generation(marker, 0)  # not promoted
    finally:
        gc.unfreeze()


def test_a_cycle_made_inside_a_run_is_freed_by_the_next_collection():
    refs = []

    class Node:
        pass

    class Spy(PASM):
        def plan(self, ctx):
            node = Node()
            node.itself = node
            refs.append(weakref.ref(node))
            return super().plan(ctx)

    data = make_dataset(HYBRID.relations, 20, seed=37)
    execute(HYBRID, data, algorithm=Spy(), num_partitions=4)
    assert len(refs) == 1
    gc.collect()
    assert refs[0]() is None


def test_the_outermost_pause_promotes_and_an_inner_one_does_not():
    assert gc.isenabled()
    with collector_paused():
        with collector_paused():
            marker = []
        assert not gc.isenabled()
        assert _in_generation(marker, 0)
    assert gc.isenabled()
    assert _in_generation(marker, 2)


def test_a_pause_that_found_the_collector_off_promotes_nothing():
    gc.disable()
    try:
        with collector_paused():
            marker = []
        assert not gc.isenabled()
        assert _in_generation(marker, 0)
    finally:
        gc.enable()
