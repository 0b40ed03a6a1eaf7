"""Ablation A3 — Afrati-style share allocation vs uniform grids.

The paper sizes every grid dimension identically; its Section 9.2 notes
that Afrati & Ullman's share allocation could improve Gen-Matrix.  This
ablation quantifies that: on the skewed-size hybrid query Q4 (R1 three
orders of magnitude larger than its partners in the paper's setup), the
tuner's non-uniform shares cut shipped pairs versus a uniform grid with
the same cell budget, at equal output.
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

from repro.core.planner import ALGORITHMS  # noqa: E402
from repro.core.query import IntervalJoinQuery  # noqa: E402
from repro.core.tuning import recommend_shares  # noqa: E402
from repro.workloads import SyntheticConfig, generate_relation  # noqa: E402

SCALE = 2_000.0
Q4 = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
)


def make_data(n1: int):
    t_range = (0, 100_000)
    sizes = {"R1": n1, "R2": max(10, n1 // 50), "R3": max(10, n1 // 25)}
    return {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=sizes[name], t_range=t_range, length_range=(1, 800),
                seed=seed,
            ),
        )
        for seed, name in enumerate(("R1", "R2", "R3"))
    }


def run_pair(n1: int, cell_budget: int = 36):
    data = make_data(n1)
    cost = scaled_cost_model(SCALE)
    recommendation = recommend_shares(Q4, data, cell_budget=cell_budget)
    uniform_o = max(2, int(cell_budget ** 0.5))
    tuned = ALGORITHMS["all_seq_matrix"](
        grid_parts=recommendation.shares
    ).run(Q4, data, num_partitions=uniform_o, cost_model=cost)
    uniform = ALGORITHMS["all_seq_matrix"](grid_parts=uniform_o).run(
        Q4, data, num_partitions=uniform_o, cost_model=cost
    )
    assert tuned.same_output(uniform)
    return recommendation, tuned, uniform


def main() -> None:
    print_section(
        "Ablation A3 — Afrati shares vs uniform grid "
        "(Q4, cell budget 36)"
    )
    rows = []
    for n1 in (1_000, 2_000, 4_000):
        recommendation, tuned, uniform = run_pair(n1)
        rows.append(
            [
                human_count(n1),
                "x".join(str(s) for s in recommendation.shares),
                human_count(tuned.metrics.shuffled_records),
                human_count(uniform.metrics.shuffled_records),
                human_seconds(tuned.metrics.simulated_seconds),
                human_seconds(uniform.metrics.simulated_seconds),
                human_count(len(tuned)),
            ]
        )
    print(
        render_table(
            "",
            [
                "nI(R1)", "shares", "pairs tuned", "pairs uniform",
                "t tuned", "t uniform", "output",
            ],
            rows,
            note="the tuner gives the heavy dimension (R1+R3) most of "
            "the budget; identical output either way",
        )
    )


if __name__ == "__main__":
    main()
