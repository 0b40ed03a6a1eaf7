"""Plan prediction helpers and the exact tier's dry pipeline.

``JoinAlgorithm.predict`` has two tiers.  The *analytic* tier (the
default, implemented per algorithm next to its ``plan``) evaluates the
closed-form Section-6 formulas from a :class:`~repro.core.tuning.DataProfile`
alone.  The *exact* tier here has no per-algorithm code and no engine of
its own: it hands the algorithm's own ``plan`` method a
:class:`DryPipeline`, which runs each job's map and shuffle through the
job runner's own code (:mod:`repro.mapreduce.runner`) over the actual
data, on the data plane the run would pick, and runs a job's reduce only
when something downstream reads its output.  So the run's communication
counters are reproduced bit-for-bit (the property tests in
``tests/core/test_predict.py`` pin it) under whatever partitioning the
run would use, while the plan's final reduce (where a run spends its
time), task retries, spans and metrics are skipped.

Per-key reducer loads are not accumulated here: every dry job is
recorded as a :class:`~repro.mapreduce.job.JobResult`, and
``ExecutionMetrics.from_pipeline`` / ``.combine`` fold them across cycles
and sub-plans exactly as they do for a run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

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
from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.options import RunOptions
from repro.mapreduce.pipeline import PipelineResult
from repro.mapreduce.runner import (
    _JobRun,
    _map_and_shuffle,
    _reduce_and_commit,
    _Shuffled,
)
from repro.obs.recorder import NullRecorder

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
# The exact tier: the algorithm's own plan on the engine's map and shuffle
# ----------------------------------------------------------------------


class _DryFileSystem(InMemoryFileSystem):
    """Holds each dry job between its shuffle and its reduce until
    something reads the job's output path; only then does the job's
    reduce half run and commit its ``part-*`` files."""

    def __init__(self) -> None:
        super().__init__()
        self.unreduced: Dict[str, Tuple[_JobRun, _Shuffled]] = {}

    def read_dir(self, base: str) -> Iterator[Any]:
        job = self.unreduced.pop(base, None)
        if job is not None:
            _reduce_and_commit(*job)
        return super().read_dir(base)


class DryPipeline:
    """The :class:`~repro.mapreduce.pipeline.Pipeline` stand-in a plan is
    handed for an exact prediction.

    ``run`` runs the engine's own map and shuffle
    (:func:`~repro.mapreduce.runner.run_job`'s first half) serially,
    fault-free and unobserved, on the data plane the run would pick, and
    records the cycle as an ordinary
    :class:`~repro.mapreduce.job.JobResult` — so ``ExecutionMetrics``
    folds per-key loads across cycles and sub-plans exactly as it does
    for a run.  The reduce half runs only if a later job, the plan
    method or a parent plan reads the job's output: flag/mark reducers
    and intermediate joins execute, the plan's final join never does.
    Its run options are the defaults, never the environment's, and its
    recorder is a ``NullRecorder``, so no executor, fault plan or
    observer can touch a prediction.
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
        recorder = NullRecorder()
        run = _JobRun(self.fs, conf, RunOptions(), recorder, None)
        shuffled = _map_and_shuffle(run, recorder.start_span("job"))
        self.fs.unreduced[conf.output] = (run, shuffled)
        result = JobResult(
            name=conf.name,
            counters=shuffled.counters,
            reduce_task_loads=[],
            logical_reducer_loads=shuffled.logical_loads,
            output=conf.output,
            output_records=0,
        )
        self.result.jobs.append(result)
        self.cycles.append(
            CyclePrediction(
                name=conf.name,
                records_read=float(
                    result.counters.value("framework", "map_input_records")
                ),
                map_output_records=float(result.map_output_records),
                shuffled_records=float(result.shuffled_records),
                reduce_tasks=conf.num_reduce_tasks,
                max_reducer_load=float(
                    max(result.logical_reducer_loads.values(), default=0)
                ),
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
