"""Table 1 — multi-way colocation join, varying data size.

Paper setup: Q1 = R1 overlaps R2 and R2 overlaps R3; dS, dI uniform;
t range (0, 100K); interval lengths (1, 100); equal relation sizes swept
0.5M..1.25M in 0.25M steps; 16 reducers.  Columns: times for 2-way Cd /
All-Rep / RCCIS, #intervals replicated (RCCIS, All-Rep) and total
key-value pairs.

Scaling.  Sizes here are the paper's / ~400 and the cost model is scaled
accordingly.  One knob does not survive naive down-scaling: the
intermediate-result density.  At the paper's sizes each interval overlaps
``nI * avg_len / range`` ≈ 100+ partners, making the cascade's
intermediate ~50x its input; dividing nI by 400 with unchanged lengths
drops that to ~0.25 and the cascade artificially wins.  The headline run
therefore scales interval lengths x10 (max 1000) to restore intermediate
≈ 3x input — still far below the paper's density, which pure-Python
output materialisation cannot reach — and the density ablation below
sweeps lengths across both regimes so the crossover is visible.
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
ALGORITHMS = ("two_way_cascade", "all_replicate", "rccis")


def make_data(n: int, max_length: float = 1_000.0, seed_base: int = 0):
    return {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=n,
                t_range=(0, 100_000),
                length_range=(1, max_length),
                seed=seed_base + index,
            ),
        )
        for index, name in enumerate(("R1", "R2", "R3"))
    }


def run_row(n: int, max_length: float = 1_000.0):
    data = make_data(n, max_length)
    cost = scaled_cost_model(SCALE)
    results = {
        name: run_algorithm(Q1, data, name, num_partitions=16, cost_model=cost)
        for name in ALGORITHMS
    }
    outputs = {len(r) for r in results.values()}
    assert len(outputs) == 1, "algorithms disagreed"
    return results


def main() -> None:
    print_section(
        "Table 1 — Q1 = R1 ov R2 and R2 ov R3, varying size "
        f"(paper sizes / 400, cost scale x2000, 16 reducers)"
    )
    rows = []
    for n in (1_250, 1_875, 2_500, 3_125):
        results = run_row(n)
        cascade, allrep, rccis = (
            results["two_way_cascade"],
            results["all_replicate"],
            results["rccis"],
        )
        rows.append(
            [
                human_count(n),
                human_seconds(cascade.metrics.simulated_seconds),
                human_seconds(allrep.metrics.simulated_seconds),
                human_seconds(rccis.metrics.simulated_seconds),
                f"{human_count(rccis.metrics.replicated_intervals)} "
                f"({human_count(rccis.metrics.shuffled_records)})",
                f"{human_count(allrep.metrics.replicated_intervals)} "
                f"({human_count(allrep.metrics.shuffled_records)})",
                f"({human_count(cascade.metrics.shuffled_records)})",
                human_count(len(rccis)),
            ]
        )
    print(
        render_table(
            "",
            [
                "nI", "t 2-way Cd", "t All-Rep", "t RCCIS",
                "#repl RCCIS (pairs)", "#repl All-Rep (pairs)",
                "#pairs 2-way Cd", "output",
            ],
            rows,
            note="paper shape: RCCIS fastest, replicating ~1% of what "
            "All-Rep replicates; the cascade's penalty grows with density "
            "(next table)",
        )
    )

    print_section(
        "Table 1b (ours) — density ablation: intermediate/input ratio "
        "drives the cascade's cost (nI = 1500)"
    )
    rows = []
    for max_length in (100, 500, 1_000, 2_000, 4_000):
        results = run_row(1_500, max_length)
        cascade, allrep, rccis = (
            results["two_way_cascade"],
            results["all_replicate"],
            results["rccis"],
        )
        output = len(rccis)
        rows.append(
            [
                human_count(max_length),
                human_count(output),
                human_seconds(cascade.metrics.simulated_seconds),
                human_seconds(allrep.metrics.simulated_seconds),
                human_seconds(rccis.metrics.simulated_seconds),
                human_count(cascade.metrics.shuffled_records),
                human_count(rccis.metrics.shuffled_records),
            ]
        )
    print(
        render_table(
            "",
            [
                "i_max", "output", "t 2-way Cd", "t All-Rep", "t RCCIS",
                "pairs Cd", "pairs RCCIS",
            ],
            rows,
            note="the paper's runs sit far right of this sweep "
            "(intermediate ~50x input), where the cascade is worst",
        )
    )


if __name__ == "__main__":
    main()
