"""Join results and execution metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.query import IntervalJoinQuery
from repro.core.schema import Row
from repro.mapreduce.cost import CostModel, DEFAULT_COST_MODEL
from repro.mapreduce.pipeline import PipelineResult

__all__ = ["ExecutionMetrics", "JoinResult"]


@dataclass
class ExecutionMetrics:
    """Everything an algorithm run measured.

    The fields mirror the columns of the paper's evaluation tables:
    intermediate pair counts ("# Pairs"), replicated interval counts
    ("# Intervals Replicated"), per-reducer loads (the Figure 4 story) and
    a modelled wall-clock time ("Time").
    """

    algorithm: str
    num_cycles: int = 0
    map_output_records: int = 0
    shuffled_records: int = 0
    replicated_intervals: int = 0
    replicated_pairs: int = 0
    #: rows dropped by PASM's marking cycle before grid routing.
    pruned_rows: int = 0
    comparisons: int = 0
    records_read: int = 0
    output_records: int = 0
    #: records received per logical reducer (grid cell / partition).
    reducer_loads: Dict[Hashable, int] = field(default_factory=dict)
    #: modelled seconds under the cost model used at run time.
    simulated_seconds: float = 0.0
    #: number of consistent reducers used by grid algorithms (None
    #: otherwise).
    consistent_reducers: Optional[int] = None
    #: total grid cells for grid algorithms (None otherwise).
    total_reducers: Optional[int] = None
    #: task attempts that failed (injected or genuine) and were retried
    #: or gave up; 0 on fault-free runs.
    tasks_failed: int = 0
    #: failed attempts that were re-run within the retry budget.
    tasks_retried: int = 0
    #: speculative backup attempts whose output was discarded.
    speculative_wasted: int = 0
    #: algorithm-specific shape metadata (grid dimensions, cascade
    #: stages, partition counts) — what the dashboard's utilisation
    #: table is built from.
    shape: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_pipeline(
        cls,
        algorithm: str,
        pipeline: PipelineResult,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> "ExecutionMetrics":
        """Fold a pipeline's job results into one metric record."""
        counters = pipeline.counters
        loads: Dict[Hashable, int] = {}
        for job in pipeline.jobs:
            for key, value in job.logical_reducer_loads.items():
                loads[key] = loads.get(key, 0) + value
        return cls(
            algorithm=algorithm,
            num_cycles=pipeline.num_cycles,
            map_output_records=pipeline.total_map_output_records,
            shuffled_records=pipeline.total_shuffled_records,
            replicated_intervals=counters.value("join", "replicated_intervals"),
            replicated_pairs=counters.value("join", "replicated_pairs"),
            pruned_rows=counters.value("join", "pruned_rows"),
            comparisons=counters.value("work", "comparisons"),
            records_read=counters.value("framework", "map_input_records"),
            output_records=pipeline.jobs[-1].output_records if pipeline.jobs else 0,
            reducer_loads=loads,
            simulated_seconds=cost_model.pipeline_time(pipeline),
            tasks_failed=counters.value("faults", "tasks_failed"),
            tasks_retried=counters.value("faults", "tasks_retried"),
            speculative_wasted=counters.value("faults", "speculative_wasted"),
        )

    @classmethod
    def combine(
        cls, algorithm: str, parts: Sequence["ExecutionMetrics"]
    ) -> "ExecutionMetrics":
        """Sum metrics of sub-executions (used by composite algorithms
        such as FCTS that orchestrate other algorithms' pipelines)."""
        merged = cls(algorithm=algorithm)
        for part in parts:
            merged.num_cycles += part.num_cycles
            merged.map_output_records += part.map_output_records
            merged.shuffled_records += part.shuffled_records
            merged.replicated_intervals += part.replicated_intervals
            merged.replicated_pairs += part.replicated_pairs
            merged.pruned_rows += part.pruned_rows
            merged.comparisons += part.comparisons
            merged.records_read += part.records_read
            merged.simulated_seconds += part.simulated_seconds
            merged.tasks_failed += part.tasks_failed
            merged.tasks_retried += part.tasks_retried
            merged.speculative_wasted += part.speculative_wasted
            for key, value in part.reducer_loads.items():
                composite_key = (part.algorithm, key)
                merged.reducer_loads[composite_key] = (
                    merged.reducer_loads.get(composite_key, 0) + value
                )
        if parts:
            merged.output_records = parts[-1].output_records
        return merged

    @property
    def replication_factor(self) -> float:
        """Intermediate pairs emitted per input record read — the
        paper's communication-cost headline (Section 6)."""
        if not self.records_read:
            return 0.0
        return self.map_output_records / self.records_read

    @property
    def max_reducer_load(self) -> int:
        return max(self.reducer_loads.values(), default=0)

    @property
    def mean_reducer_load(self) -> float:
        if not self.reducer_loads:
            return 0.0
        return sum(self.reducer_loads.values()) / len(self.reducer_loads)

    def observed_quantities(self) -> Dict[str, float]:
        """The run-measured values of exactly the quantities
        :meth:`repro.core.tuning.PlanPrediction.quantities` predicts —
        the observed side of every plan reconciliation."""
        return {
            "records_read": float(self.records_read),
            "map_output_records": float(self.map_output_records),
            "shuffled_records": float(self.shuffled_records),
            "replication_factor": float(self.replication_factor),
            "max_reducer_load": float(self.max_reducer_load),
            "num_cycles": float(self.num_cycles),
            "modelled_seconds": float(self.simulated_seconds),
        }


class JoinResult:
    """The output of one join execution.

    Attributes
    ----------
    query:
        The executed query.
    tuples:
        Output tuples, each a tuple of :class:`Row` in ``query.relations``
        order.
    metrics:
        The run's :class:`ExecutionMetrics`.
    """

    def __init__(
        self,
        query: IntervalJoinQuery,
        tuples: Sequence[Tuple[Row, ...]],
        metrics: ExecutionMetrics,
    ) -> None:
        self.query = query
        # A list is kept, not copied: ``run_plan`` hands over the one it
        # collected the output into.
        self.tuples: List[Tuple[Row, ...]] = (
            tuples if isinstance(tuples, list) else list(tuples)
        )
        self.metrics = metrics

    def __len__(self) -> int:
        return len(self.tuples)

    def tuple_ids(self) -> List[Tuple[int, ...]]:
        """Sorted rid tuples (query relation order) — the canonical form
        used to compare two results for equality."""
        return sorted(tuple(row.rid for row in t) for t in self.tuples)

    def same_output(self, other: "JoinResult") -> bool:
        """Whether two results produced exactly the same tuple set."""
        return self.tuple_ids() == other.tuple_ids()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JoinResult({self.metrics.algorithm}, {len(self.tuples)} tuples, "
            f"{self.metrics.num_cycles} cycles, "
            f"{self.metrics.shuffled_records} shuffled)"
        )
