"""Ablation A1 — partition-count / grid-granularity sweep.

How does the number of partitions (RCCIS) or the per-dimension grid
granularity (All-Matrix) trade communication against parallelism?  More
partitions means finer load spreading but more boundary-crossing
intervals to replicate (RCCIS) and more cells to fan out to (grids).
The paper fixes 16 reducers / o=6 grids; this sweep shows those choices
sit on a flat region of the curve.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from common import (  # noqa: E402
    human_count,
    human_seconds,
    print_section,
    render_table,
    run_algorithm,
    scaled_cost_model,
)

from repro.core.query import IntervalJoinQuery  # noqa: E402
from repro.workloads import SyntheticConfig, generate_relation  # noqa: E402

SCALE = 2_000.0
Q1 = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
Q2 = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)


def colocation_data(n: int = 2_000):
    return {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=n, t_range=(0, 100_000), length_range=(1, 1_000), seed=seed
            ),
        )
        for seed, name in enumerate(("R1", "R2", "R3"))
    }


def sequence_data(n: int = 100):
    return {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=n, t_range=(0, 1_000), length_range=(1, 100), seed=seed
            ),
        )
        for seed, name in enumerate(("R1", "R2", "R3"))
    }


def main() -> None:
    cost = scaled_cost_model(SCALE)

    print_section("Ablation A1a — RCCIS vs #partitions (Q1, nI = 2000)")
    data = colocation_data()
    rows = []
    for parts in (2, 4, 8, 16, 32, 64):
        result = run_algorithm(
            Q1, data, "rccis", num_partitions=parts, cost_model=cost
        )
        rows.append(
            [
                parts,
                human_seconds(result.metrics.simulated_seconds),
                human_count(result.metrics.replicated_intervals),
                human_count(result.metrics.shuffled_records),
                human_count(result.metrics.max_reducer_load),
            ]
        )
    print(
        render_table(
            "",
            ["partitions", "time", "#replicated", "pairs", "max load"],
            rows,
            note="replication grows with boundary density; straggler "
            "shrinks with parallelism — the paper's 16 sits in the flat "
            "middle",
        )
    )

    print_section(
        "Ablation A1b — All-Matrix vs grid granularity o (Q2, nI = 100)"
    )
    data = sequence_data()
    rows = []
    for o in (2, 3, 4, 6, 8):
        result = run_algorithm(
            Q2, data, "all_matrix", num_partitions=o,
            cost_model=cost, grid_parts=o,
        )
        rows.append(
            [
                o,
                f"{result.metrics.consistent_reducers}/"
                f"{result.metrics.total_reducers}",
                human_seconds(result.metrics.simulated_seconds),
                human_count(result.metrics.shuffled_records),
                human_count(result.metrics.max_reducer_load),
            ]
        )
    print(
        render_table(
            "",
            ["o", "consistent/total", "time", "pairs", "max cell load"],
            rows,
            note="fan-out grows ~o^(m-1)/m per interval; straggler "
            "shrinks ~o^m — the sweet spot balances the two",
        )
    )


if __name__ == "__main__":
    main()
