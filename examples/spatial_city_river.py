#!/usr/bin/env python
"""Spatial join: "find all cities overlapping a river" (paper, Section 1).

Rectangles are pairs of intervals (x-extent, y-extent), so the spatial
join becomes the two-attribute interval join

    cities.x overlaps rivers.x  and  cities.y overlaps rivers.y

which Gen-Matrix executes on a multi-dimensional reducer grid.  Because
Allen's `overlaps` is directional, the single query above captures one
orientation; the example then unions all four orientation combinations to
recover full geometric intersection and validates against a brute-force
sweep.

Run:  python examples/spatial_city_river.py
"""

import itertools

from repro import IntervalJoinQuery, execute
from repro.stats import human_count, render_table
from repro.workloads import RectangleConfig, generate_rectangles, rectangles_intersect

#: Allen predicates whose union equals "the two intervals intersect".
COLOCATION_ORIENTATIONS = [
    "overlaps", "overlapped_by", "contains", "during",
    "starts", "started_by", "finishes", "finished_by", "equals",
    "meets", "met_by",
]


def main() -> None:
    cities = generate_rectangles(
        "cities",
        RectangleConfig(n=300, world=(0, 5_000), width_range=(5, 60),
                        height_range=(5, 60), seed=10),
    )
    rivers = generate_rectangles(
        "rivers",
        RectangleConfig(n=40, world=(0, 5_000), width_range=(400, 2_500),
                        height_range=(10, 60), seed=11),
    )
    data = {"cities": cities, "rivers": rivers}
    print(f"{len(cities)} cities x {len(rivers)} rivers")

    # One orientation as the paper writes it:
    query = IntervalJoinQuery.parse(
        [
            ("cities.x", "overlaps", "rivers.x"),
            ("cities.y", "overlaps", "rivers.y"),
        ]
    )
    result = execute(query, data, algorithm="gen_matrix", num_partitions=5)
    print(
        f"\n'{query}' -> {len(result)} pairs "
        f"({result.metrics.consistent_reducers}/"
        f"{result.metrics.total_reducers} consistent reducers)"
    )

    # Full geometric intersection = union over orientation combinations.
    matches = set()
    per_orientation = []
    for px, py in itertools.product(COLOCATION_ORIENTATIONS, repeat=2):
        q = IntervalJoinQuery.parse(
            [("cities.x", px, "rivers.x"), ("cities.y", py, "rivers.y")]
        )
        r = execute(q, data, algorithm="gen_matrix", num_partitions=5)
        if len(r):
            per_orientation.append([f"x:{px}", f"y:{py}", len(r)])
        matches.update(r.tuple_ids())

    brute = {
        (c.rid, v.rid)
        for c in cities.rows
        for v in rivers.rows
        if rectangles_intersect(c, v)
    }
    assert matches == brute, "union of orientations != geometric truth"
    print(
        f"\nfull rectangle intersection: {len(matches)} city-river pairs "
        "(validated against brute force)\n"
    )
    print(
        render_table(
            "non-empty orientation combinations",
            ["x predicate", "y predicate", "# pairs"],
            per_orientation[:12],
            note=f"{len(per_orientation)} of "
            f"{len(COLOCATION_ORIENTATIONS) ** 2} combinations non-empty",
        )
    )


if __name__ == "__main__":
    main()
