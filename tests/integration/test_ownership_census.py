"""Ownership decided once per cell, and a join planned once per start.

* Routed grid cells: a singleton component's rows all start at the
  cell's coordinate and an anchored component's rows start at or left of
  it, so on a query with at most one multi-term component no cell of a
  ``pasm``, ``gen_matrix`` or ``all_seq_matrix`` run builds an ownership
  mask.  A second multi-term component is replicated but not anchored:
  every cell of such a query keeps its mask.  Each run still equals
  :func:`~repro.core.reference.reference_join` — on a star-shaped
  unanchored component too, whose members' rows can all be replicated
  right of the cell that owns their tuple, so that only its mask keeps
  the output exactly-once.
* ``LocalJoiner`` planning — :func:`~repro.core.local.binding_order` and
  the step plan — runs at most once per (query, first relation), however
  many anchored runs and tasks a reducer serves, on the serial and the
  threads executor.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core import local
from repro.core.algorithms import gen_matrix
from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery

from tests.conftest import assert_matches_reference, make_dataset

ONE_MULTI = {
    "hybrid": [("R1", "overlaps", "R2"), ("R2", "before", "R3")],
    "sequence": [("R1", "before", "R2"), ("R2", "before", "R3")],
    "colocation": [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
}
TWO_MULTI = [("R1", "overlaps", "R2"), ("R2", "before", "R3"), ("R3", "during", "R4")]
#: Anchored on the four-relation chain; R5 and R6 both start inside R4
#: in either order, so either may be replicated past the other.
UNANCHORED_STAR = [
    ("R1", "overlaps", "R2"), ("R2", "overlaps", "R3"), ("R2", "overlaps", "R7"),
    ("R3", "before", "R4"), ("R4", "contains", "R5"), ("R4", "contains", "R6"),
]
GRIDS = ["pasm", "gen_matrix", "all_seq_matrix"]
EXECUTORS = ["serial", "threads"]


@pytest.fixture
def masks(monkeypatch):
    """Per ``cell_owner`` call, whether it built a mask; and the number
    of blocks masks filtered."""
    built, filtered, lock = [], [0], threading.Lock()
    real = gen_matrix.cell_owner

    def counted(*args, **kwargs):
        owns, located = real(*args, **kwargs)
        with lock:
            built.append(owns is not None)
        if owns is None:
            return owns, located

        def counted_owns(binding):
            with lock:
                filtered[0] += 1
            return owns(binding)

        return counted_owns, located

    monkeypatch.setattr(gen_matrix, "cell_owner", counted)
    return built, filtered


def run(conditions, algorithm, executor, data=None):
    query = IntervalJoinQuery.parse(conditions)
    if data is None:
        data = make_dataset(query.relations, 40, seed=3, span=120.0)
    result = execute(
        query, data, algorithm, num_partitions=3, executor=executor, workers=2
    )
    assert_matches_reference(query, data, result)
    return result


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "name, algorithm",
    # PASM and All-Seq-Matrix take hybrid queries only.
    [("hybrid", algorithm) for algorithm in GRIDS]
    + [("sequence", "gen_matrix"), ("colocation", "gen_matrix")],
)
def test_routed_cells_of_one_multi_term_queries_build_no_mask(masks, name, algorithm, executor):
    built, filtered = masks
    assert len(run(ONE_MULTI[name], algorithm, executor))
    assert built and not any(built) and filtered == [0]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", GRIDS)
def test_two_multi_term_queries_keep_a_mask_per_cell(masks, algorithm, executor):
    built, filtered = masks
    assert len(run(TWO_MULTI, algorithm, executor))
    assert built and all(built) and filtered[0]


@pytest.mark.parametrize("algorithm", GRIDS)
def test_an_unanchored_star_component_is_owned_by_its_mask(masks, algorithm):
    query = IntervalJoinQuery.parse(UNANCHORED_STAR)
    data = make_dataset(sorted(query.relations), 14, seed=5, span=100.0, max_length=40.0)
    assert len(run(UNANCHORED_STAR, algorithm, "serial", data))
    built, filtered = masks
    assert built and all(built) and filtered[0]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "algorithm, conditions",
    [
        ("rccis", ONE_MULTI["colocation"]),
        ("pasm", ONE_MULTI["hybrid"]),
        ("gen_matrix", TWO_MULTI),
    ],
)
def test_a_join_is_planned_once_per_query_and_start(monkeypatch, algorithm, conditions, executor):
    plans, joiners, lock = Counter(), [0], threading.Lock()
    order, steps, planned = local.binding_order, local._plan_steps, local._planned

    def counted_order(query, start_with=None):
        with lock:
            plans["order", id(query), start_with] += 1
        return order(query, start_with)

    def counted_steps(query, ordered):
        with lock:
            plans["steps", id(query), ordered[0]] += 1
        return steps(query, ordered)

    def counted_planned(query, start_with):
        with lock:
            joiners[0] += 1
        return planned(query, start_with)

    monkeypatch.setattr(local, "binding_order", counted_order)
    monkeypatch.setattr(local, "_plan_steps", counted_steps)
    monkeypatch.setattr(local, "_planned", counted_planned)
    run(conditions, algorithm, executor)
    assert plans and max(plans.values()) == 1, plans
    # Two counted entries a plan; more joiners than plans: runs share.
    assert joiners[0] > len(plans) // 2
