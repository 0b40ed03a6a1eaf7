"""Cost-based tuning of partition counts and grid granularity.

The paper fixes 16 reducers and hand-picks grid granularities, noting
(Section 7.2) that the cost-model-driven tuning of Zhang et al. could be
integrated "by taking the distribution of interval lengths into account".
This module does exactly that for this library's algorithms: from cheap
data statistics it predicts, per candidate partition count, the
communication and straggler terms of the configured
:class:`~repro.mapreduce.cost.CostModel`, and recommends the candidate
with the lowest predicted time.

The predictions intentionally reuse the same formulas the ablation
benchmarks measure (A1a/A1b), so `recommend_*` can be validated against
actual runs — see ``tests/core/test_tuning.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlanningError
from repro.core.graph import JoinGraph
from repro.core.query import IntervalJoinQuery, JoinCondition, QueryClass
from repro.core.schema import Relation
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import hull
from repro.mapreduce.cost import CostModel, DEFAULT_COST_MODEL

__all__ = [
    "ShareRecommendation",
    "recommend_shares",
    "DataProfile",
    "Candidate",
    "TuningReport",
    "profile_data",
    "recommend_partitions",
    "recommend_grid",
    "PredictConfig",
    "CyclePrediction",
    "PlanPrediction",
    "split_factor",
    "crossing_fraction",
    "replicate_fanout",
    "condition_selectivity",
    "cycle_seconds",
]


@dataclass(frozen=True)
class DataProfile:
    """Cheap sufficient statistics of the join input."""

    total_rows: int
    rows_per_relation: Dict[str, int]
    mean_length: float
    time_span: float

    @property
    def boundary_density(self) -> float:
        """Expected fraction of intervals crossing a unit-width boundary,
        per unit of partition width (mean length / span)."""
        if self.time_span <= 0:
            return 0.0
        return self.mean_length / self.time_span


def profile_data(
    query: IntervalJoinQuery, data: Mapping[str, Relation]
) -> DataProfile:
    """Collect the statistics the predictors need, from the relations'
    endpoint columns."""
    terms = query.terms
    columns = [data[term.relation].columns(term.attribute) for term in terms]
    rows_per_relation = {term.relation: len(data[term.relation]) for term in terms}
    # Summed in row order below: ``np.sum`` is pairwise and moves the last
    # bits, which every analytic prediction would inherit.
    lengths = np.concatenate([[0.0]] + [c.ends - c.starts for c in columns])
    count = len(lengths) - 1
    lo, hi = hull(columns) or (0.0, 1.0)
    return DataProfile(
        total_rows=sum(rows_per_relation.values()),
        rows_per_relation=rows_per_relation,
        mean_length=float(np.cumsum(lengths)[-1]) / count if count else 0.0,
        time_span=max(hi - lo, 1e-9),
    )


@dataclass(frozen=True)
class Candidate:
    """One evaluated configuration."""

    partitions: int
    predicted_seconds: float
    predicted_shuffled: float
    predicted_max_load: float


@dataclass(frozen=True)
class TuningReport:
    """The recommendation plus every candidate considered."""

    best: Candidate
    candidates: Tuple[Candidate, ...]
    algorithm: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TuningReport({self.algorithm}: use {self.best.partitions} "
            f"partitions, ~{self.best.predicted_seconds:.1f}s predicted)"
        )


def _predict_rccis(
    profile: DataProfile, partitions: int, cost: CostModel
) -> Candidate:
    """Analytic RCCIS cost: two cycles; cycle 1 splits everything, cycle
    2 projects the non-flagged and replicates boundary-crossers to half
    the following partitions on average."""
    n = profile.total_rows
    width = profile.time_span / partitions
    split_factor = 1.0 + (
        profile.mean_length / width if width > 0 else 0.0
    )
    crossing_fraction = min(1.0, profile.mean_length / width) if width else 1.0
    cycle1 = n * split_factor
    replicated_pairs = n * crossing_fraction * (partitions / 2.0)
    cycle2 = n + replicated_pairs
    shuffled = cycle1 + cycle2
    # Loads are near-uniform for uniform data; the straggler holds its
    # partition's share of each cycle.
    max_load = max(cycle1, cycle2) / partitions
    seconds = (
        2 * cost.per_cycle_overhead
        + (2 * n / cost.parallelism) * cost.read_cost
        + max(
            shuffled / cost.parallelism * cost.shuffle_cost,
            max_load * cost.shuffle_cost,
        )
        * 2  # two reduce phases of similar magnitude
    )
    return Candidate(partitions, seconds, shuffled, max_load)


def recommend_partitions(
    query: IntervalJoinQuery,
    data: Mapping[str, Relation],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    candidates: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
) -> TuningReport:
    """Recommend a 1-dimensional partition count for RCCIS.

    Only meaningful for colocation queries (the planner's RCCIS class).
    """
    if query.query_class is not QueryClass.COLOCATION:
        raise PlanningError(
            "recommend_partitions tunes RCCIS; use recommend_grid for "
            f"{query.query_class.name} queries"
        )
    profile = profile_data(query, data)
    evaluated = tuple(
        _predict_rccis(profile, parts, cost_model) for parts in candidates
    )
    best = min(evaluated, key=lambda c: c.predicted_seconds)
    return TuningReport(best=best, candidates=evaluated, algorithm="rccis")


def _count_consistent_cells(
    graph: JoinGraph, o: int
) -> Tuple[int, List[float]]:
    """Consistent-cell count plus, per dimension, the mean number of
    consistent cells pinned at each coordinate (the routing fan-out)."""
    dims = len(graph.components)
    orders = graph.component_orders
    total = 0
    fanout_sums = [0.0] * dims
    for cell in itertools.product(range(o), repeat=dims):
        if all(cell[j] <= cell[k] for j, k in orders):
            total += 1
            for dim in range(dims):
                fanout_sums[dim] += 1
    if total == 0:
        return 0, [0.0] * dims
    # Rows pinned on dimension d reach (consistent cells with that
    # coordinate); averaged over coordinates that is total / o.
    return total, [total / o] * dims


@dataclass(frozen=True)
class ShareRecommendation:
    """Per-dimension granularities (Afrati-style shares)."""

    shares: Tuple[int, ...]
    predicted_shuffled: float
    predicted_max_cell_load: float
    total_cells: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShareRecommendation(shares={self.shares}, "
            f"cells={self.total_cells}, "
            f"~{self.predicted_shuffled:.0f} pairs, "
            f"~{self.predicted_max_cell_load:.0f}/cell)"
        )


def recommend_shares(
    query: IntervalJoinQuery,
    data: Mapping[str, Relation],
    cell_budget: int = 64,
    max_share: int = 16,
) -> ShareRecommendation:
    """Afrati-style share allocation: per-dimension granularities.

    Afrati & Ullman size each dimension of a multi-way join's reducer
    grid in proportion to how much data routes through it, minimising
    communication subject to a reducer budget — the integration the paper
    names as future work (Section 9.2).  Rows routed on dimension ``d``
    fan out to roughly ``cells / o_d`` consistent cells, so total
    communication is ``sum_d n_d * cells / o_d`` and the per-cell
    (straggler) load is ``sum_d n_d / o_d`` — heavy dimensions deserve
    large shares.  Minimising communication alone would always collapse
    to one cell, so the objective is the cost-model's reduce-phase form:
    ``max(communication / parallelism, straggler)``.  The discrete
    optimum is found by exhaustive search over granularity vectors within
    the cell budget (dimension counts are small — the paper's maximum is
    four).

    Returns shares usable directly as ``GenMatrix(grid_parts=shares)``.
    """
    graph = JoinGraph(query)
    dims = len(graph.components)
    if dims < 2:
        raise PlanningError("share allocation needs >= 2 grid dimensions")
    profile = profile_data(query, data)
    rows_per_dim = [
        sum(
            profile.rows_per_relation.get(term.relation, 0)
            for term in comp.terms
        )
        for comp in graph.components
    ]

    orders = graph.component_orders

    def consistent_cells(shares: Sequence[int]) -> int:
        count = 0
        for cell in itertools.product(*(range(o) for o in shares)):
            # Uniform per-dimension partitionings over one shared time
            # range: coordinate i of granularity o covers fraction
            # [i/o, (i+1)/o); an order (j, k) is possible unless dim j's
            # slice starts at or after dim k's slice ends.
            ok = True
            for j, k in orders:
                min_j = 0.0 if cell[j] == 0 else cell[j] / shares[j]
                max_k = (
                    1.0
                    if cell[k] == shares[k] - 1
                    else (cell[k] + 1) / shares[k]
                )
                if min_j >= max_k:
                    ok = False
                    break
            if ok:
                count += 1
        return count

    multi_dims = {
        comp.index for comp in graph.components if len(comp.terms) > 1
    }
    parallelism = DEFAULT_COST_MODEL.parallelism
    best: Optional[ShareRecommendation] = None
    best_key: Optional[Tuple[float, int]] = None
    for shares in itertools.product(range(1, max_share + 1), repeat=dims):
        total = math.prod(shares)
        if total > cell_budget:
            continue
        cells = consistent_cells(shares)
        if cells == 0:
            continue
        shuffled = 0.0
        flag_shuffled = 0.0
        for dim, (rows, o) in enumerate(zip(rows_per_dim, shares)):
            width = profile.time_span / o
            crossing = min(1.0, profile.mean_length / width) if width else 1.0
            if dim in multi_dims:
                # Flag cycle splits the dimension's rows; flagged rows
                # then fan out to roughly half the consistent cells.
                flag_shuffled += rows * (1.0 + crossing)
                fanout = (1 - crossing) * cells / o + crossing * cells / 2.0
            else:
                fanout = cells / o
            shuffled += rows * fanout
        straggler = shuffled / cells
        phase = max(
            (shuffled + flag_shuffled) / parallelism, straggler
        )
        key = (phase, cells)
        if best_key is None or key < best_key:
            best_key = key
            best = ShareRecommendation(
                shares=tuple(shares),
                predicted_shuffled=shuffled + flag_shuffled,
                predicted_max_cell_load=straggler,
                total_cells=cells,
            )
    assert best is not None  # shares=(1,...,1) always qualifies
    return best


def recommend_grid(
    query: IntervalJoinQuery,
    data: Mapping[str, Relation],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    candidates: Sequence[int] = (2, 3, 4, 5, 6, 8, 10, 12),
) -> TuningReport:
    """Recommend a per-dimension granularity ``o`` for the grid engine
    (All-Matrix / All-Seq-Matrix / Gen-Matrix)."""
    graph = JoinGraph(query)
    dims = len(graph.components)
    if dims < 2:
        raise PlanningError(
            "grid tuning needs >= 2 components; colocation queries use "
            "recommend_partitions"
        )
    profile = profile_data(query, data)
    # Rows routed per dimension: the rows of the relations whose terms
    # live in that component.
    rows_per_dim = [
        sum(
            profile.rows_per_relation.get(term.relation, 0)
            for term in comp.terms
        )
        for comp in graph.components
    ]
    evaluated = []
    for o in candidates:
        cells, fanouts = _count_consistent_cells(graph, o)
        if cells == 0:
            continue
        # Per-row fan-out on dimension d = consistent cells with that
        # coordinate pinned = cells / o on average.
        shuffled = sum(
            rows * fanout for rows, fanout in zip(rows_per_dim, fanouts)
        )
        max_load = shuffled / cells
        seconds = (
            cost_model.per_cycle_overhead
            + (profile.total_rows / cost_model.parallelism)
            * cost_model.read_cost
            + max(
                shuffled / cost_model.parallelism * cost_model.shuffle_cost,
                max_load * cost_model.shuffle_cost,
            )
        )
        evaluated.append(Candidate(o, seconds, shuffled, max_load))
    best = min(evaluated, key=lambda c: c.predicted_seconds)
    return TuningReport(
        best=best, candidates=tuple(evaluated), algorithm="grid"
    )


# ----------------------------------------------------------------------
# Plan prediction: the EXPLAIN-facing contract shared by all algorithms.
#
# ``JoinAlgorithm.predict`` (see ``repro.core.algorithms.base``) returns a
# :class:`PlanPrediction` — per-cycle communication volumes plus grid
# shape — computed either *analytically* from a :class:`DataProfile`
# alone (the closed-form Section-6 style formulas below) or *exactly* by
# interpreting the algorithm's own plan dry over the data
# (``repro.core.predict``).  The reconciliation layer
# (``repro.obs.explain``) joins these numbers against the observed
# ``ExecutionMetrics``/``MetricsRegistry`` values after the run.


def split_factor(profile: DataProfile, parts: int) -> float:
    """Expected SPLIT fan-out per row: 1 + mean length / partition width."""
    width = profile.time_span / parts if parts else 0.0
    return 1.0 + (profile.mean_length / width if width > 0 else 0.0)


def crossing_fraction(profile: DataProfile, parts: int) -> float:
    """Expected fraction of rows crossing their right partition boundary."""
    width = profile.time_span / parts if parts else 0.0
    return min(1.0, profile.mean_length / width) if width > 0 else 1.0


def replicate_fanout(parts: int) -> float:
    """Expected REPLICATE fan-out: a uniform start lands in partition
    ``i`` and copies to partitions ``i..parts-1`` — ``(parts + 1) / 2``
    on average."""
    return (parts + 1) / 2.0


def condition_selectivity(
    condition: JoinCondition, profile: DataProfile
) -> float:
    """Coarse selectivity estimate for one Allen predicate.

    Sequence predicates (``before``/``after``) hold for half of the
    random pairs; colocation predicates require a shared point, which two
    uniform intervals of mean length ``L`` over span ``T`` do with
    probability about ``2 L / T``.  Deliberately rough — EXPLAIN reports
    the resulting error, and ``check_model_error.py`` pins it.
    """
    if condition.predicate.is_sequence:
        return 0.5
    if profile.time_span <= 0:
        return 1.0
    return min(1.0, 2.0 * profile.mean_length / profile.time_span)


def cycle_seconds(
    cost: CostModel, reads: float, shuffled: float, max_load: float
) -> float:
    """Modelled seconds for one MR cycle, cost-model reduce-phase form.

    Deliberately omits the comparison/output/queueing terms that the
    observed :meth:`CostModel.job_time` includes — the residual is the
    cost-model error that the reconciliation layer tracks.
    """
    return (
        cost.per_cycle_overhead
        + (reads / cost.parallelism) * cost.read_cost
        + max(
            shuffled / cost.parallelism * cost.shuffle_cost,
            max_load * cost.shuffle_cost,
        )
    )


@dataclass(frozen=True)
class PredictConfig:
    """Inputs :meth:`JoinAlgorithm.predict` needs besides the profile."""

    num_partitions: int = 16
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: ``True`` interprets the algorithm's plan dry over the actual data
    #: (requires ``data``); default is the closed-form analytic tier.
    exact: bool = False
    #: The actual relations, required by the exact tier.
    data: Optional[Mapping[str, Relation]] = None
    #: The run's partitioning inputs, as ``execute()`` takes them; the
    #: exact tier partitions the way the run will (the analytic formulas
    #: assume uniform partitions).
    partition_strategy: str = "uniform"
    partitioning: Optional[Partitioning] = None

    def require_data(self) -> Mapping[str, Relation]:
        if self.data is None:
            raise PlanningError(
                "exact prediction dry-runs the mappers and needs data="
            )
        return self.data


@dataclass(frozen=True)
class CyclePrediction:
    """Predicted communication volumes of one MapReduce cycle."""

    name: str
    records_read: float
    map_output_records: float
    shuffled_records: float
    reduce_tasks: int
    max_reducer_load: float

    def seconds(self, cost: CostModel) -> float:
        return cycle_seconds(
            cost, self.records_read, self.shuffled_records,
            self.max_reducer_load,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "records_read": self.records_read,
            "map_output_records": self.map_output_records,
            "shuffled_records": self.shuffled_records,
            "reduce_tasks": self.reduce_tasks,
            "max_reducer_load": self.max_reducer_load,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CyclePrediction":
        return cls(
            name=str(payload["name"]),
            records_read=float(payload["records_read"]),
            map_output_records=float(payload["map_output_records"]),
            shuffled_records=float(payload["shuffled_records"]),
            reduce_tasks=int(payload["reduce_tasks"]),
            max_reducer_load=float(payload["max_reducer_load"]),
        )


@dataclass(frozen=True)
class PlanPrediction:
    """Predicted run-group quantities for a whole physical plan.

    ``max_reducer_load`` is a plan-level figure (not the max of the
    per-cycle figures): logical reducer keys collide across cycles and
    ``ExecutionMetrics.from_pipeline`` sums loads per key across jobs, so
    each algorithm's predictor accounts for key-space collisions itself.
    """

    algorithm: str
    cost_model: CostModel
    cycles: Tuple[CyclePrediction, ...]
    max_reducer_load: float
    consistent_reducers: int
    total_reducers: int
    tier: str = "analytic"
    notes: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    @property
    def records_read(self) -> float:
        return sum(c.records_read for c in self.cycles)

    @property
    def map_output_records(self) -> float:
        return sum(c.map_output_records for c in self.cycles)

    @property
    def shuffled_records(self) -> float:
        return sum(c.shuffled_records for c in self.cycles)

    @property
    def replication_factor(self) -> float:
        reads = self.records_read
        return self.map_output_records / reads if reads else 0.0

    @property
    def modelled_seconds(self) -> float:
        return sum(c.seconds(self.cost_model) for c in self.cycles)

    def quantities(self) -> Dict[str, float]:
        """The quantities reconciliation compares, keyed as metrics are."""
        return {
            "records_read": self.records_read,
            "map_output_records": self.map_output_records,
            "shuffled_records": self.shuffled_records,
            "replication_factor": self.replication_factor,
            "max_reducer_load": self.max_reducer_load,
            "num_cycles": float(self.num_cycles),
            "modelled_seconds": self.modelled_seconds,
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "tier": self.tier,
            "consistent_reducers": self.consistent_reducers,
            "total_reducers": self.total_reducers,
            "max_reducer_load": self.max_reducer_load,
            "cycles": [c.as_dict() for c in self.cycles],
            "notes": list(self.notes),
            "cost_model": {
                "read_cost": self.cost_model.read_cost,
                "shuffle_cost": self.cost_model.shuffle_cost,
                "comparison_cost": self.cost_model.comparison_cost,
                "output_cost": self.cost_model.output_cost,
                "per_cycle_overhead": self.cost_model.per_cycle_overhead,
                "parallelism": self.cost_model.parallelism,
            },
            "quantities": self.quantities(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlanPrediction":
        cost = CostModel(**payload["cost_model"])
        return cls(
            algorithm=str(payload["algorithm"]),
            cost_model=cost,
            cycles=tuple(
                CyclePrediction.from_dict(c) for c in payload["cycles"]
            ),
            max_reducer_load=float(payload["max_reducer_load"]),
            consistent_reducers=int(payload["consistent_reducers"]),
            total_reducers=int(payload["total_reducers"]),
            tier=str(payload.get("tier", "analytic")),
            notes=tuple(payload.get("notes", ())),
        )
