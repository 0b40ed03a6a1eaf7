"""Counters the pair kernel must not move, pinned from the parent commit.

One small fixed-seed query per shape the repo benchmark runs — the 2-way
``two_way`` join, the 3-way colocation ``rccis``, the hybrid ``pasm`` —
with ``work:comparisons`` (charged from the kernel's candidate count, and
what the cost model prices), ``shuffled_records`` and the digest of
``tuple_ids()`` recorded at commit 0387d1a (PR 22), before the kernel
visited its probes in sorted order.  A kernel that yields other
candidates, or other pairs, moves one of them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import IntervalJoinQuery, execute
from repro.workloads.synthetic import SyntheticConfig, generate_relation

#: ``generate_relation(name, SyntheticConfig(n, t_range=(0, T),
#: length_range=(1, 100), seed=i))`` for the i-th relation, 8 partitions:
#: algorithm, n, T, conditions -> (tuples, comparisons, shuffled, digest).
PINNED = {
    "two-way": (
        "two_way", 3_000, 40_000, [("R1", "overlaps", "R2")],
        (7_616, 7_616, 6_023, "f3c935d865a5ea4ea85d29b84a16c434"),
    ),
    "colocation-rccis": (
        "rccis", 1_500, 20_000,
        [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
        (10_410, 40_535, 9_386, "75d23fc0bd427356530da47f55bcf2ee"),
    ),
    "hybrid-pasm": (
        "pasm", 300, 20_000,
        [("R1", "overlaps", "R2"), ("R2", "before", "R3")],
        (20_943, 21_916, 3_574, "51dcf39f5f2b33aed0094276bd418383"),
    ),
}


def observed(algorithm, n, t_max, conditions):
    query = IntervalJoinQuery.parse(conditions)
    data = {
        name: generate_relation(
            name,
            SyntheticConfig(
                n, t_range=(0, t_max), length_range=(1, 100), seed=seed
            ),
        )
        for seed, name in enumerate(query.relations)
    }
    result = execute(query, data, algorithm, num_partitions=8)
    ids = np.asarray(result.tuple_ids(), dtype=np.int64)
    return (
        len(result),
        result.metrics.comparisons,
        result.metrics.shuffled_records,
        hashlib.blake2b(ids.tobytes(), digest_size=16).hexdigest(),
    )


@pytest.mark.parametrize("case", sorted(PINNED))
def test_benchmark_shapes_are_pinned(case):
    *shape, pinned = PINNED[case]
    assert observed(*shape) == pinned
