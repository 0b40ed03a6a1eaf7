"""Figure 4 — load balancing: All-Rep vs All-Matrix on a 2-way sequence
join.

The paper's figure shows, for ``R1 before R2``, that All-Replicate piles
ever more load onto the right-most reducers (the last one receives all of
R1) while All-Matrix's 2-dimensional consistent-cell grid spreads the
cross-product evenly.  This benchmark reproduces the figure as numbers:
the per-reducer load distribution of each algorithm, its max/mean
imbalance, and Jain's fairness index.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from common import (  # noqa: E402
    print_section,
    render_table,
    run_algorithm,
    scaled_cost_model,
)

from repro.core.query import IntervalJoinQuery  # noqa: E402
from repro.stats import load_balance  # noqa: E402
from repro.workloads import SyntheticConfig, generate_relation  # noqa: E402

SCALE = 500.0
QUERY = IntervalJoinQuery.parse([("R1", "before", "R2")])


def make_data(n: int = 600):
    return {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=n, t_range=(0, 1_000), length_range=(1, 100), seed=seed
            ),
        )
        for seed, name in enumerate(("R1", "R2"))
    }


def main() -> None:
    print_section(
        "Figure 4 — per-reducer load, All-Rep (6 partitions) vs "
        "All-Matrix (3x3 grid, 6 consistent cells)"
    )
    data = make_data()
    cost = scaled_cost_model(SCALE)

    allrep = run_algorithm(
        QUERY, data, "all_replicate", num_partitions=6, cost_model=cost
    )
    matrix = run_algorithm(
        QUERY, data, "all_matrix", num_partitions=6,
        cost_model=cost, grid_parts=3,
    )
    assert allrep.same_output(matrix)

    rows = []
    rep_loads = sorted(allrep.metrics.reducer_loads.items(), key=lambda kv: repr(kv[0]))
    mat_loads = sorted(matrix.metrics.reducer_loads.items(), key=lambda kv: repr(kv[0]))
    for index in range(max(len(rep_loads), len(mat_loads))):
        rep = rep_loads[index] if index < len(rep_loads) else ("-", "")
        mat = mat_loads[index] if index < len(mat_loads) else ("-", "")
        rows.append([rep[0], rep[1], str(mat[0]), mat[1]])
    print(
        render_table(
            "",
            ["All-Rep reducer", "load", "All-Matrix cell", "load"],
            rows,
        )
    )

    rep_summary = load_balance(allrep.metrics.reducer_loads)
    mat_summary = load_balance(matrix.metrics.reducer_loads)
    print(
        render_table(
            "\nload-balance summary",
            ["algorithm", "reducers", "max", "mean", "max/mean", "Jain"],
            [
                [
                    "all_replicate",
                    rep_summary.reducers,
                    rep_summary.max_load,
                    f"{rep_summary.mean_load:.0f}",
                    f"{rep_summary.imbalance:.2f}",
                    f"{rep_summary.fairness:.3f}",
                ],
                [
                    "all_matrix",
                    mat_summary.reducers,
                    mat_summary.max_load,
                    f"{mat_summary.mean_load:.0f}",
                    f"{mat_summary.imbalance:.2f}",
                    f"{mat_summary.fairness:.3f}",
                ],
            ],
            note="paper's figure: All-Rep load climbs toward the "
            "right-most reducer; All-Matrix cells are near-uniform",
        )
    )


if __name__ == "__main__":
    main()
