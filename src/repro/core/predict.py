"""Plan prediction helpers and the exact tier's dry plan interpreter.

``JoinAlgorithm.predict`` has two tiers.  The *analytic* tier (the
default, implemented per algorithm next to its ``plan``) evaluates the
closed-form Section-6 formulas from a :class:`~repro.core.tuning.DataProfile`
alone.  The *exact* tier here has no per-algorithm code: it hands the
algorithm's own ``plan`` method a :class:`DryPipeline`, which drives each
job's **real** mappers over the actual data and runs a job's reducer
only when something downstream reads its output.  So the run's
communication counters are reproduced bit-for-bit (the property tests in
``tests/core/test_predict.py`` pin it) under whatever partitioning the
run would use, while the plan's final join — where a run spends its
time — is never executed.

Per-key reducer loads are not accumulated here: every dry job is
recorded as a :class:`~repro.mapreduce.job.JobResult`, and
``ExecutionMetrics.from_pipeline`` / ``.combine`` fold them across cycles
and sub-plans exactly as they do for a run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanningError
from repro.core.algorithms.base import PlanContext
from repro.core.algorithms.gen_matrix import GridSpec
from repro.core.query import IntervalJoinQuery
from repro.core.tuning import (
    CyclePrediction,
    DataProfile,
    PlanPrediction,
    PredictConfig,
    replicate_fanout,
    split_factor,
)
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.counters import Counters
from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.pipeline import PipelineResult
from repro.mapreduce.task import MapContext, ReduceContext, Reducer

__all__ = [
    "DryPipeline",
    "operator_fanout",
    "analytic_grid",
    "empty_prediction",
    "exact_prediction",
]


def operator_fanout(
    operator: MapOperator, profile: DataProfile, parts: int
) -> float:
    """Expected emitted pairs per row for one Section-3 map operator."""
    if operator is MapOperator.PROJECT:
        return 1.0
    if operator is MapOperator.SPLIT:
        return split_factor(profile, parts)
    return replicate_fanout(parts)


def analytic_grid(graph, per_dim_parts: Sequence[int]):
    """A :class:`GridSpec` over synthetic uniform partitionings.

    Cell consistency only compares boundary *ranks*, which are identical
    for any uniform partitionings over a shared range — so the synthetic
    ``[0, 1)`` grid has exactly the cells the run's data-range grid will
    have (uniform strategy), without touching the data.
    """
    return GridSpec(
        graph,
        [Partitioning.uniform(0.0, 1.0, o) for o in per_dim_parts],
    )


def empty_prediction(
    algorithm: str, conf: PredictConfig, note: str
) -> PlanPrediction:
    """The prediction for a provably-empty query: no jobs at all."""
    return PlanPrediction(
        algorithm=algorithm,
        cost_model=conf.cost_model,
        cycles=(),
        max_reducer_load=0.0,
        consistent_reducers=0,
        total_reducers=0,
        tier="analytic",
        notes=(note,),
    )


# ----------------------------------------------------------------------
# The exact tier: the algorithm's own plan, interpreted dry
# ----------------------------------------------------------------------


class _DryFileSystem(InMemoryFileSystem):
    """Holds each dry job's grouped map output until something reads the
    job's output path; only then does the job's reducer run."""

    def __init__(self) -> None:
        super().__init__()
        self.unreduced: Dict[str, Tuple[Reducer, Dict[Hashable, List[Any]]]] = {}

    def read_dir(self, base: str) -> Iterator[Any]:
        job = self.unreduced.pop(base, None)
        if job is not None:
            reducer, groups = job
            context = ReduceContext(Counters(), task_index=0)
            reducer.setup(context)
            for key, values in groups.items():
                reducer.reduce(key, values, context)
            reducer.cleanup(context)
            self.write(base, context.drain(), overwrite=True)
        return super().read_dir(base)


class DryPipeline:
    """The :class:`~repro.mapreduce.pipeline.Pipeline` stand-in a plan is
    handed for an exact prediction.

    ``run`` drives the job's real mappers over its inputs, in-process,
    and records the cycle as an ordinary
    :class:`~repro.mapreduce.job.JobResult` — so ``ExecutionMetrics``
    folds per-key loads across cycles and sub-plans exactly as it does
    for a run.  The reducer runs only if a later job, the plan method or
    a parent plan reads the job's output: flag/mark reducers and
    intermediate joins execute, the plan's final join never does.
    Nothing goes through ``run_job``, so executors, fault plans, data
    planes and observers cannot touch a prediction.
    """

    observer = None

    def __init__(self, cycles: Optional[List[CyclePrediction]] = None) -> None:
        self.fs = _DryFileSystem()
        self.result = PipelineResult()
        #: every cycle of the whole plan tree, in execution order.
        self.cycles: List[CyclePrediction] = [] if cycles is None else cycles

    def child(self) -> "DryPipeline":
        return DryPipeline(self.cycles)

    def run(self, conf: JobConf) -> JobResult:
        if conf.combiner is not None:
            raise PlanningError(
                f"exact prediction does not model combiners (job {conf.name!r})"
            )
        counters = Counters()
        groups: Dict[Hashable, List[Any]] = defaultdict(list)
        reads = 0
        for spec in conf.inputs:
            context = MapContext(counters, spec.path)
            spec.mapper.setup(context)
            for record in self.fs.read_dir(spec.path):
                reads += 1
                spec.mapper.map(record, context)
            spec.mapper.cleanup(context)
            for key, value in context.drain():
                groups[key].append(value)
        loads = {key: len(values) for key, values in groups.items()}
        pairs = sum(loads.values())
        counters.increment("framework", "map_input_records", reads)
        counters.increment("framework", "map_output_records", pairs)
        counters.increment("framework", "shuffle_records", pairs)
        self.fs.unreduced[conf.output] = (conf.reducer, groups)
        result = JobResult(
            name=conf.name,
            counters=counters,
            reduce_task_loads=[],
            logical_reducer_loads=loads,
            output=conf.output,
            output_records=0,
        )
        self.result.jobs.append(result)
        self.cycles.append(
            CyclePrediction(
                name=conf.name,
                records_read=float(reads),
                map_output_records=float(pairs),
                shuffled_records=float(pairs),
                reduce_tasks=conf.num_reduce_tasks,
                max_reducer_load=float(max(loads.values(), default=0)),
            )
        )
        return result


def exact_prediction(
    algorithm, query: IntervalJoinQuery, conf: PredictConfig
) -> PlanPrediction:
    """The exact tier for any algorithm: run its plan through the
    ``run()`` template on a :class:`DryPipeline`, leaving the final
    output unread, and report what the jobs recorded."""
    pipeline = DryPipeline()
    metrics = algorithm.run_plan(
        PlanContext(
            query,
            conf.require_data(),
            conf.num_partitions,
            pipeline,
            conf.cost_model,
            conf.partitioning,
            conf.partition_strategy,
        ),
        collect=False,
    ).metrics
    if not pipeline.cycles:
        # Every plan submits at least one job; none means the template
        # caught the plan's UnsatisfiableQueryError.
        return empty_prediction(
            algorithm.name, conf, "join graph unsatisfiable; no jobs run"
        )
    on_grid = metrics.consistent_reducers is not None
    return PlanPrediction(
        algorithm=algorithm.name,
        cost_model=conf.cost_model,
        cycles=tuple(pipeline.cycles),
        max_reducer_load=float(metrics.max_reducer_load),
        consistent_reducers=(
            metrics.consistent_reducers if on_grid else conf.num_partitions
        ),
        total_reducers=(
            metrics.total_reducers if on_grid else conf.num_partitions
        ),
        tier="exact",
    )
