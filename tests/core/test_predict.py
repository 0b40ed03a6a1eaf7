"""Exact-tier predictions must equal observed metrics, bit for bit.

The exact prediction tier (``PredictConfig(exact=True, data=...)``)
interprets the algorithm's own plan dry — real mappers, and only the
reducers whose output a later cycle reads — so every count it returns — records read, map output, shuffled records,
replication factor, max reducer load, cycle count — must match what an
actual run observes *exactly*, for all ten algorithms, on any workload.
These are the property tests behind the ``repro explain --exact``
contract; the analytic tier's (approximate) errors are pinned separately
by ``benchmarks/check_model_error.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import execute
from repro.core.planner import ALGORITHMS
from repro.core.query import IntervalJoinQuery
from repro.core.tuning import PredictConfig, profile_data
from repro.workloads import SyntheticConfig, generate_relation

#: One pinned query per algorithm, on a class it handles.
QUERIES = {
    "two_way": (("R1", "overlaps", "R2"),),
    "two_way_cascade": (("R1", "overlaps", "R2"), ("R2", "before", "R3")),
    "all_replicate": (("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")),
    "rccis": (("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")),
    "all_matrix": (("R1", "before", "R2"), ("R2", "before", "R3")),
    "all_seq_matrix": (("R1", "overlaps", "R2"), ("R2", "before", "R3")),
    "pasm": (("R1", "overlaps", "R2"), ("R2", "before", "R3")),
    "gen_matrix": (("R1", "overlaps", "R2"), ("R2", "before", "R3")),
    "fcts": (("R1", "overlaps", "R2"), ("R2", "before", "R3")),
    "fstc": (("R1", "overlaps", "R2"), ("R2", "before", "R3")),
}

#: Quantities the exact tier reproduces bit-for-bit.  ``modelled_seconds``
#: is excluded: the dry run charges no per-phase queueing, so it tracks
#: but does not equal the simulated clock.
EXACT_QUANTITIES = (
    "records_read",
    "map_output_records",
    "shuffled_records",
    "replication_factor",
    "max_reducer_load",
    "num_cycles",
)


def _workload(algorithm: str, n: int, seed: int):
    query = IntervalJoinQuery.parse(list(QUERIES[algorithm]))
    data = {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=n,
                t_range=(0, 10_000),
                length_range=(1, 400),
                seed=seed + index,
            ),
        )
        for index, name in enumerate(query.relations)
    }
    return query, data


def _predict_and_observe(
    algorithm: str, n: int, seed: int, parts: int, strategy: str = "uniform"
):
    query, data = _workload(algorithm, n, seed)
    prediction = ALGORITHMS[algorithm]().predict(
        query,
        profile_data(query, data),
        PredictConfig(
            num_partitions=parts,
            exact=True,
            data=data,
            partition_strategy=strategy,
        ),
    )
    result = execute(
        query,
        data,
        algorithm=algorithm,
        num_partitions=parts,
        executor="serial",
        partition_strategy=strategy,
    )
    return prediction, result.metrics.observed_quantities()


@pytest.mark.parametrize("algorithm", sorted(QUERIES))
def test_exact_prediction_matches_observation(algorithm):
    prediction, observed = _predict_and_observe(algorithm, 60, 0, 8)
    assert prediction.tier == "exact"
    predicted = prediction.quantities()
    for quantity in EXACT_QUANTITIES:
        assert predicted[quantity] == observed[quantity], (
            f"{algorithm}.{quantity}: predicted {predicted[quantity]} "
            f"!= observed {observed[quantity]}"
        )


@pytest.mark.parametrize("algorithm", sorted(QUERIES))
def test_exact_prediction_matches_observation_equi_depth(algorithm):
    """The dry run partitions the way the run does, not always uniformly."""
    prediction, observed = _predict_and_observe(
        algorithm, 80, 0, 8, strategy="equi_depth"
    )
    predicted = prediction.quantities()
    for quantity in EXACT_QUANTITIES:
        assert predicted[quantity] == observed[quantity], (
            f"{algorithm}.{quantity}: predicted {predicted[quantity]} "
            f"!= observed {observed[quantity]}"
        )


@pytest.mark.parametrize("algorithm", sorted(QUERIES))
@settings(max_examples=4, deadline=None)
@given(
    n=st.integers(min_value=12, max_value=48),
    seed=st.integers(min_value=0, max_value=40),
    parts=st.sampled_from([2, 4, 8]),
)
def test_exact_prediction_matches_observation_property(
    algorithm, n, seed, parts
):
    prediction, observed = _predict_and_observe(algorithm, n, seed, parts)
    predicted = prediction.quantities()
    for quantity in EXACT_QUANTITIES:
        assert predicted[quantity] == observed[quantity], (
            f"{algorithm}.{quantity} on n={n} seed={seed} parts={parts}"
        )
