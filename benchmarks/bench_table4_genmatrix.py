"""Table 4 — Gen-Matrix on the general query Q5.

Paper setup: Q5 = R1.I before R2.I and R1.I overlaps R3.I and
R1.A = R3.A and R2.B = R3.B; interval attribute I over (0, 100K) with
lengths (1, 1000); real-valued attributes A, B uniform; sizes
(100K, 10K, 100K) grown in 10% steps; four grid dimensions with o = 5 and
one enforced order -> 375 of 625 consistent reducers; the paper reports
time growing linearly with size.

Here sizes are the paper's / 100 and the cost model is scaled to match.
The 375/625 consistent-reducer count is reproduced *exactly* (it is a
pure function of the query and grid, independent of scale).
"""

from __future__ import annotations

import os
import random
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
from repro.core.schema import Relation, Row  # noqa: E402
from repro.intervals.interval import Interval  # noqa: E402

SCALE = 1_000.0
Q5 = IntervalJoinQuery.parse(
    [
        ("R1.I", "before", "R2.I"),
        ("R1.I", "overlaps", "R3.I"),
        ("R1.A", "=", "R3.A"),
        ("R2.B", "=", "R3.B"),
    ]
)


def make_relation(name: str, n: int, attrs, seed: int) -> Relation:
    rng = random.Random(seed)
    rows = []
    for rid in range(n):
        start = rng.uniform(0, 100_000)
        values = {"I": Interval(start, start + rng.uniform(1, 1_000))}
        for attr in attrs:
            values[attr] = float(rng.randint(0, 9))
        rows.append(Row.make(rid, values))
    return Relation(name, rows)


def make_data(n1: int):
    n2 = n1 // 10
    return {
        "R1": make_relation("R1", n1, ["A"], 1),
        "R2": make_relation("R2", n2, ["B"], 2),
        "R3": make_relation("R3", n1, ["A", "B"], 3),
    }


def main() -> None:
    print_section(
        "Table 4 — Gen-Matrix on Q5 (4 dims, o=5, 375/625 consistent "
        "reducers; sizes = paper's / 100)"
    )
    cost = scaled_cost_model(SCALE)
    rows = []
    for n1 in (1_000, 1_100, 1_200, 1_300, 1_400):
        data = make_data(n1)
        result = run_algorithm(
            Q5, data, "gen_matrix", num_partitions=5,
            cost_model=cost, grid_parts=5,
        )
        assert result.metrics.consistent_reducers == 375
        assert result.metrics.total_reducers == 625
        rows.append(
            [
                f"{human_count(n1)}, {human_count(n1 // 10)}, {human_count(n1)}",
                human_seconds(result.metrics.simulated_seconds),
                human_count(result.metrics.shuffled_records),
                human_count(len(result)),
            ]
        )
    print(
        render_table(
            "",
            ["nI's", "time", "pairs shuffled", "output"],
            rows,
            note="paper: 11:34 -> 22:19, growing roughly linearly; "
            "375/625 consistent reducers reproduced exactly",
        )
    )


if __name__ == "__main__":
    main()
