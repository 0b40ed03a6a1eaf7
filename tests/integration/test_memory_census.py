"""The memory census: what a run allocates per output tuple.

A run holds one copy of its output — the row-index blocks its final
reduce tasks committed, 8 B per member — and builds ``Row`` tuples only
when ``.tuples`` is read.  For every algorithm, on fixed inputs, and
for the repo benchmark's ``hybrid3_pasm`` at full size, tracemalloc
bytes per output tuple are read three times — the peak of
``execute()`` alone, the peak of ``execute()`` then ``.tuples``, and
what the built result retains — and held to the committed bounds in
``memory_bounds.json``.  Allocation sizes are deterministic on one
Python and numpy, so the algorithms' bounds sit 10 % above the
measured values: a second copy of the output (24 B a tuple on a 3-way
join), ``Row`` tuples built inside ``execute()`` (72 B a tuple) or a
block kept beside the built tuples exceed them.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.core.executor import execute
from repro.core.planner import ALGORITHMS

from tests.conftest import make_dataset
from tests.core.test_gc_pause import CASES

BOUNDS = json.loads((Path(__file__).parent / "memory_bounds.json").read_text())
BENCHMARK = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def per_tuple_peaks(run):
    """``(tuples, execute peak, forced peak, retained)`` of ``run()``, a
    query returning a ``JoinResult``: the peaks, and what the result
    holds once its tuples are built, in bytes per output tuple above
    what was allocated before the query."""
    len(run().tuples)  # the relations' columns are built once, before
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        executed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        count = len(result.tuples)
        forced = max(executed, tracemalloc.get_traced_memory()[1])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return count, *((reading - base) / count for reading in (executed, forced, retained))


def assert_within(bounds, readings):
    count, executed, forced, retained = readings
    assert count == bounds["tuples"]
    assert executed <= bounds["execute"], f"execute(): {executed:.1f} B a tuple"
    assert forced <= bounds["forced"], f"execute() + .tuples: {forced:.1f} B a tuple"
    assert retained <= bounds["retained"], f"built result: {retained:.1f} B a tuple"


def test_every_algorithm_has_bounds():
    assert sorted(BOUNDS["bytes_per_tuple"]) == sorted(ALGORITHMS)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_peak_bytes_per_output_tuple(name):
    query, rows = CASES[name]
    data = make_dataset(query.relations, rows, seed=0)
    assert_within(BOUNDS["bytes_per_tuple"][name], per_tuple_peaks(lambda: execute(
        query, data, algorithm=name, num_partitions=4,
        executor="serial", workers=1, faults=False,
    )))


def test_peak_bytes_per_output_tuple_of_the_benchmark_workload(monkeypatch):
    """``hybrid3_pasm`` of the repo benchmark, seed 0, at its size."""
    monkeypatch.syspath_prepend(str(BENCHMARK))
    from workloads import BY_NAME, build_query, generate_data, run_query

    workload = BY_NAME["hybrid3_pasm"]
    query, data = build_query(workload), generate_data(workload, 0)
    assert_within(
        BOUNDS["workloads"]["hybrid3_pasm"],
        per_tuple_peaks(lambda: run_query(workload, query, data)),
    )


def test_a_generated_relation_holds_its_columns_alone():
    """A relation is its columns: a generated 60,000-row interval
    relation holds at most 64 tracemalloc bytes a row — its endpoint
    columns are 16 — until its rows are read, which cost several times
    that (a ``Row``, its data tuple and an ``Interval`` each)."""
    from repro.workloads.synthetic import SyntheticConfig, generate_relation

    config = SyntheticConfig(n=60_000, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        relation = generate_relation("R", config)
        len(relation), relation.columns("I")
        held = (tracemalloc.get_traced_memory()[0] - base) / len(relation)
        relation.rows
        built = (tracemalloc.get_traced_memory()[0] - base) / len(relation)
    finally:
        tracemalloc.stop()
    assert held <= 64, f"{held:.1f} B a row before the rows are read"
    assert built > 4 * 64, f"{built:.1f} B a row with the rows built"
