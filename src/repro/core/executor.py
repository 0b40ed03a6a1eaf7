"""The high-level entry point: :func:`execute`.

Most users need only this::

    from repro import Interval, Relation, IntervalJoinQuery, execute

    r1 = Relation.of_intervals("R1", [Interval(0, 5), Interval(8, 12)])
    r2 = Relation.of_intervals("R2", [Interval(3, 9)])
    query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
    result = execute(query, {"R1": r1, "R2": r2})

``execute`` plans (choosing the paper's algorithm for the query class,
unless one is named explicitly), runs, and returns a
:class:`~repro.core.results.JoinResult`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.core.algorithms.base import JoinAlgorithm
from repro.core.planner import algorithm_named, plan
from repro.core.query import IntervalJoinQuery
from repro.core.results import ExecutionMetrics, JoinResult
from repro.core.schema import Relation
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.cost import CostModel, DEFAULT_COST_MODEL
from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.options import resolve_options
from repro.obs.recorder import TraceRecorder

__all__ = ["execute"]


def execute(
    query: IntervalJoinQuery,
    data: Mapping[str, Relation],
    algorithm: Optional[Union[str, JoinAlgorithm]] = None,
    *,
    num_partitions: int = 16,
    fs: Optional[InMemoryFileSystem] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    partitioning: Optional[Partitioning] = None,
    partition_strategy: str = "uniform",
    observer: Optional[TraceRecorder] = None,
    faults=None,
    max_attempts: Optional[int] = None,
) -> JoinResult:
    """Plan and run an interval join query.

    Parameters
    ----------
    query, data:
        The query and a mapping from relation name to :class:`Relation`.
    algorithm:
        Optional override: an algorithm name from
        :data:`~repro.core.planner.ALGORITHMS` or an instance.  When
        omitted the planner picks the paper's algorithm for the query
        class (and proves trivially empty queries without running jobs).
    executor, workers:
        Execution backend (``"serial"``, ``"threads"`` or
        ``"processes"``) and its worker count; ``None`` defers to the
        ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` environment variables and
        then the serial default.  Outputs and counters are bit-identical
        across backends.
    observer:
        Optional :class:`~repro.obs.TraceRecorder`.  When given, the run
        is recorded as a span hierarchy (query -> plan, algorithm -> job
        -> phase -> task) with counter deltas and cost-model charges;
        results are identical with or without it.
    faults, max_attempts:
        Fault-injection plan (seed / spec string / plan object) and
        per-task retry budget; ``None`` defers to ``REPRO_FAULTS`` /
        ``REPRO_MAX_ATTEMPTS``.  Any plan within the retry budget leaves
        tuples and counters (modulo the ``faults`` group) bit-identical
        to a fault-free run.

    The four run options (``executor`` … ``max_attempts``) are resolved
    and validated here, once, into a
    :class:`~repro.mapreduce.options.RunOptions` — before planning, so an
    invalid option raises even when the planner proves the query empty —
    and handed to the algorithm as one argument.  The other keyword
    arguments are forwarded as they are; see
    :meth:`~repro.core.algorithms.base.JoinAlgorithm.run`.
    """
    query.validate_against(data)
    options = resolve_options(executor, workers, faults, max_attempts)
    if algorithm is None:
        chosen = plan(query)
        if chosen.provably_empty:
            metrics = ExecutionMetrics(algorithm="planner-empty")
            if observer is not None:
                with observer.span(
                    f"query:{query}",
                    kind="query",
                    query_class=query.query_class.name,
                    planner_empty=True,
                    empty_proof=chosen.empty_proof,
                ):
                    pass
            return JoinResult.of_blocks(query, [], metrics)
        runner = chosen.algorithm
        assert runner is not None
    elif isinstance(algorithm, str):
        runner = algorithm_named(algorithm)
    else:
        runner = algorithm

    def _run() -> JoinResult:
        return runner.run(
            query,
            data,
            num_partitions=num_partitions,
            fs=fs,
            cost_model=cost_model,
            partitioning=partitioning,
            partition_strategy=partition_strategy,
            observer=observer,
            options=options,
        )

    if observer is None:
        return _run()

    # Pre-run plan prediction (analytic: the profile and the config are
    # its only inputs, so it is executor- and fault-invariant) plus the
    # post-run reconciliation — both recorded as spans, which is where
    # the run-group gauges and the live ETA model read them.  Strictly
    # observational: the run itself is untouched.
    from repro.core.tuning import PredictConfig, profile_data
    from repro.errors import ReproError
    from repro.obs.explain import PlanReconciliation

    prediction = None
    prediction_error: Optional[str] = None
    try:
        prediction = runner.predict(
            query,
            profile_data(query, data),
            PredictConfig(
                num_partitions=num_partitions, cost_model=cost_model
            ),
        )
    except ReproError as exc:
        prediction_error = str(exc)

    with observer.span(
        f"query:{query}", kind="query", query_class=query.query_class.name
    ):
        plan_attributes = {"algorithm": runner.name}
        if prediction is not None:
            plan_attributes.update(
                tier=prediction.tier,
                quantities=prediction.quantities(),
                prediction=prediction.as_dict(),
            )
        else:
            plan_attributes["prediction_error"] = prediction_error
        with observer.span(
            f"plan:{runner.name}", kind="plan", **plan_attributes
        ):
            pass
        # The algorithm span (and its jobs) opens where the plan runs.
        result = _run()
        if prediction is not None:
            reconciliation = PlanReconciliation.from_metrics(
                prediction, result.metrics
            )
            with observer.span(
                f"reconciliation:{runner.name}",
                kind="reconciliation",
                algorithm=reconciliation.algorithm,
                tier=reconciliation.tier,
                rows=[row.as_dict() for row in reconciliation.rows],
                max_relative_error=reconciliation.max_relative_error,
            ):
                pass
        return result
