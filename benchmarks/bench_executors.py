"""Executor benchmark — real wall-clock of serial vs threads vs processes.

Unlike the paper-table benchmarks (whose *modelled* seconds come from the
cost model), this one measures the actual wall-clock of the simulator's
three execution backends on identical workloads, asserting bit-identical
outputs along the way.  Results go to ``BENCH_executors.json`` (see
:func:`common.emit_bench_json`) with the host CPU count recorded — the
processes backend can only beat serial when the machine has cores to
spare; on a single-core host the JSON documents that honestly instead of
faking a speedup.  Each workload row also carries a per-executor
``phases`` breakdown — map/shuffle/reduce wall seconds summed from the
phase spans of one observed (untimed) run per executor — so a slowdown
can be localised to the phase that caused it.

Each job runs on the data plane it picks for itself (see
``docs/data_plane.md``): the ``two_way`` and ``rccis`` joins on the
columnar plane, the ``pasm`` and ``gen_matrix`` jobs on the records
plane.

Run directly (``python benchmarks/bench_executors.py``) for the full
sweep — ``--scale N`` multiplies every workload's row count, e.g.
``--scale 10`` for the configuration where the processes backend is
expected to pay off on a multi-core host — or via pytest-benchmark for
the small pinned configurations.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import pytest  # noqa: E402

from common import emit_bench_json, print_section, render_table  # noqa: E402

from repro.core.executor import execute  # noqa: E402
from repro.core.query import IntervalJoinQuery  # noqa: E402
from repro.mapreduce.runner import (  # noqa: E402
    EXECUTORS,
    resolve_workers,
    shutdown_worker_pools,
)
from repro.workloads import SyntheticConfig, generate_relation  # noqa: E402

TWO_WAY = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)

#: (label, algorithm, query, relation names, rows per relation)
WORKLOADS = [
    ("two_way", "two_way", TWO_WAY, ("R1", "R2"), 4_000),
    ("rccis", "rccis", COLOCATION, ("R1", "R2", "R3"), 1_200),
    ("pasm", "pasm", HYBRID, ("R1", "R2", "R3"), 1_200),
    ("gen_matrix", "gen_matrix", HYBRID, ("R1", "R2", "R3"), 1_200),
]


def make_data(names, n, seed_base=0):
    return {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=n,
                t_range=(0, 100_000),
                length_range=(1, 100),
                seed=seed_base + index,
            ),
        )
        for index, name in enumerate(names)
    }


def _timed_run(query, data, algorithm, executor, workers):
    start = time.perf_counter()
    result = execute(
        query,
        data,
        algorithm=algorithm,
        num_partitions=8,
        executor=executor,
        workers=workers,
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def phase_breakdown(query, data, algorithm, executor, workers):
    """Per-phase (map/shuffle/reduce) wall seconds of one observed run.

    A separate run from the timed ones, so the observer's overhead never
    perturbs the headline numbers; phase spans of every job are summed
    by phase name.
    """
    from repro.obs import TraceRecorder

    observer = TraceRecorder()
    execute(
        query,
        data,
        algorithm=algorithm,
        num_partitions=8,
        executor=executor,
        workers=workers,
        observer=observer,
    )
    observer.close()
    totals = {"map": 0.0, "shuffle": 0.0, "reduce": 0.0}
    for span in observer.spans:
        if span.kind == "phase" and span.name in totals:
            totals[span.name] += span.duration
    return {phase: round(seconds, 4) for phase, seconds in totals.items()}


def run_workload(label, algorithm, query, names, n, workers, repeats=3):
    """Best-of-``repeats`` wall-clock per executor, with every
    executor's output parity-checked against the first."""
    data = make_data(names, n)
    row = {"workload": label, "algorithm": algorithm, "rows": n}
    baseline_ids = None
    phases = {}
    for executor in EXECUTORS:
        best = None
        for _ in range(repeats):
            result, elapsed = _timed_run(
                query, data, algorithm, executor, workers
            )
            best = elapsed if best is None else min(best, elapsed)
        ids = result.tuple_ids()
        if baseline_ids is None:
            baseline_ids = ids
            row["tuples"] = len(result)
            # Modelled cluster seconds are executor-independent
            # (counters are bit-identical), so one value covers the row.
            row["modelled_seconds"] = round(
                result.metrics.simulated_seconds, 4
            )
        else:
            assert ids == baseline_ids, (
                f"{label}: {executor} output diverged from serial"
            )
        row[f"{executor}_seconds"] = round(best, 4)
        phases[executor] = phase_breakdown(
            query, data, algorithm, executor, workers
        )
    row["phases"] = phases
    for executor in ("threads", "processes"):
        row[f"{executor}_speedup"] = round(
            row["serial_seconds"] / row[f"{executor}_seconds"], 3
        )
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Wall-clock of the three executors."
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=1,
        help="multiply every workload's row count (default 1; the "
        "committed baseline is recorded at scale 1)",
    )
    args = parser.parse_args(argv)
    if args.scale < 1:
        parser.error("--scale must be a positive integer")

    workers = resolve_workers(None)
    print_section(
        f"Executor wall-clock — serial vs threads vs processes "
        f"({workers} workers, {os.cpu_count()} CPUs, scale {args.scale})"
    )
    rows = []
    try:
        for label, algorithm, query, names, n in WORKLOADS:
            rows.append(
                run_workload(
                    label, algorithm, query, names, n * args.scale, workers
                )
            )
    finally:
        shutdown_worker_pools()
    headers = [
        "workload", "rows", "tuples",
        "serial s", "threads s", "processes s",
        "threads x", "processes x",
    ]
    table = [
        [
            row["workload"], row["rows"], row["tuples"],
            f"{row['serial_seconds']:.3f}",
            f"{row['threads_seconds']:.3f}",
            f"{row['processes_seconds']:.3f}",
            f"{row['threads_speedup']:.2f}",
            f"{row['processes_speedup']:.2f}",
        ]
        for row in rows
    ]
    print(render_table("executor wall-clock (best of 3)", headers, table))
    phase_rows = [
        [
            row["workload"],
            executor,
            f"{breakdown['map']:.3f}",
            f"{breakdown['shuffle']:.3f}",
            f"{breakdown['reduce']:.3f}",
        ]
        for row in rows
        for executor, breakdown in row["phases"].items()
    ]
    print(
        render_table(
            "per-phase wall-clock (one observed run per executor)",
            ["workload", "executor", "map s", "shuffle s", "reduce s"],
            phase_rows,
        )
    )
    # One small observed run (outside the timing loops, so it cannot
    # perturb them) attaches a metrics snapshot to the artifact.
    from repro.obs import TraceRecorder

    observer = TraceRecorder()
    execute(
        TWO_WAY,
        make_data(("R1", "R2"), 800),
        algorithm="two_way",
        num_partitions=8,
        executor="serial",
        observer=observer,
    )
    emit_bench_json(
        "executors",
        {
            "workers": workers,
            "scale": args.scale,
            "note": (
                "processes speedup requires free cores; on hosts where "
                "cpu_count is 1 the parallel backends can only document "
                "their overhead"
            ),
            "workloads": rows,
        },
        metrics=observer.metrics,
    )


# ---------------------------------------------------------------- pytest
@pytest.mark.parametrize("executor", EXECUTORS)
def test_executor_wallclock(benchmark, executor):
    data = make_data(("R1", "R2"), 800)

    def run():
        return execute(
            TWO_WAY,
            data,
            algorithm="two_way",
            num_partitions=8,
            executor=executor,
            workers=2,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result) > 0


if __name__ == "__main__":
    main()
