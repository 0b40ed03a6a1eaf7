"""Ablation A2 — skewed start-point distributions and equi-depth
partitioning.

The paper's evaluation uses uniform start points; its skew handling is
only sketched ("we carried out experiments varying dS ... similar
results").  This ablation makes the skew story concrete: under heavily
skewed start points, equi-width partitions funnel most intervals into a
few reducers; boundary-at-quantile (equi-depth) partitioning — this
library's extension — restores balance at identical output.
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
    scaled_cost_model,
)

from repro.core.executor import execute  # noqa: E402
from repro.core.query import IntervalJoinQuery  # noqa: E402
from repro.stats import load_balance  # noqa: E402
from repro.workloads import SyntheticConfig, generate_relation  # noqa: E402

SCALE = 2_000.0
Q1 = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)


def skewed_data(distribution: str, n: int = 1_000):
    return {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=n,
                start_dist=distribution,
                t_range=(0, 100_000),
                length_range=(1, 150),
                seed=seed,
            ),
        )
        for seed, name in enumerate(("R1", "R2", "R3"))
    }


def run_pair(distribution: str):
    data = skewed_data(distribution)
    cost = scaled_cost_model(SCALE)
    width = execute(
        Q1, data, algorithm="rccis", num_partitions=16,
        cost_model=cost, partition_strategy="uniform",
    )
    depth = execute(
        Q1, data, algorithm="rccis", num_partitions=16,
        cost_model=cost, partition_strategy="equi_depth",
    )
    assert width.same_output(depth)
    return width, depth


def main() -> None:
    print_section(
        "Ablation A2 — skewed dS: equi-width vs equi-depth partitioning "
        "(RCCIS, Q1, nI = 1000, 16 partitions)"
    )
    rows = []
    for distribution in ("uniform", "normal", "exponential", "zipf"):
        width, depth = run_pair(distribution)
        wb = load_balance(width.metrics.reducer_loads)
        db = load_balance(depth.metrics.reducer_loads)
        rows.append(
            [
                distribution,
                human_seconds(width.metrics.simulated_seconds),
                f"{wb.imbalance:.1f}",
                human_seconds(depth.metrics.simulated_seconds),
                f"{db.imbalance:.1f}",
                human_count(len(width)),
            ]
        )
    print(
        render_table(
            "",
            [
                "dS", "t equi-width", "max/mean", "t equi-depth",
                "max/mean", "output",
            ],
            rows,
            note="equi-depth keeps reducer loads near-uniform under "
            "skew; identical join output in all cases",
        )
    )


if __name__ == "__main__":
    main()
