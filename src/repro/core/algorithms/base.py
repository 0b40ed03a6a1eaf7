"""Shared plumbing for join algorithms.

Every algorithm implements :class:`JoinAlgorithm`: given a query, the data,
and sizing knobs it runs one or more simulated MapReduce jobs and returns a
:class:`~repro.core.results.JoinResult` whose metrics carry the counters the
paper's evaluation tables report.  The algorithm itself states only its
job plan (:meth:`JoinAlgorithm.plan`); :meth:`JoinAlgorithm.run` is the one
template around it, and the exact prediction tier interprets the same plan
dry (:mod:`repro.core.predict`).

Conventions used by all implementations:

* relations are written to the file system as one file per relation,
  ``input/<name>``, holding the raw :class:`~repro.core.schema.Row`
  records; a plan names such an input with :meth:`PlanContext.base_input`;
* intermediate values are ``(relation_name, row)`` pairs;
* user counters: ``join:replicated_intervals`` (distinct intervals chosen
  for replication), ``join:replicated_pairs`` (key-value pairs produced by
  replication), ``work:comparisons`` (predicate evaluations inside
  reducers).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.errors import PlanningError, UnsatisfiableQueryError
from repro.core.query import IntervalJoinQuery
from repro.core.results import ExecutionMetrics, JoinResult
from repro.core.schema import Relation, Row
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import hull
from repro.mapreduce.cost import CostModel, DEFAULT_COST_MODEL
from repro.mapreduce.fs import FileSystem, InMemoryFileSystem
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.options import RunOptions
from repro.gc_pause import collector_paused
from repro.mapreduce.pipeline import Pipeline
from repro.mapreduce.task import Mapper
from repro.obs.recorder import NullRecorder, Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.algorithms.gen_matrix import GridSpec

__all__ = [
    "JoinAlgorithm",
    "Plan",
    "PlanContext",
    "build_partitioning",
    "input_path",
    "write_inputs",
]


def input_path(relation: str) -> str:
    """The conventional file-system path of a relation's input file."""
    return f"input/{relation}"


def write_inputs(
    fs: FileSystem, query: IntervalJoinQuery, data: Mapping[str, Relation]
) -> None:
    """Write every query relation's rows to the file system."""
    query.validate_against(data)
    for name in query.relations:
        fs.write(input_path(name), data[name].rows, overwrite=True)


def build_partitioning(
    query: IntervalJoinQuery,
    data: Mapping[str, Relation],
    parts: int,
    strategy: str = "uniform",
) -> Partitioning:
    """A partitioning of the global time range covering all query attributes.

    ``strategy`` is ``"uniform"`` (the paper's equi-width setup) or
    ``"equi_depth"`` (boundaries at start-point quantiles; ablation A2).
    """
    columns = [
        data[term.relation].columns(term.attribute) for term in query.terms
    ]
    # No data at all: any non-degenerate range works.
    lo, hi = hull(columns) or (0.0, 1.0)
    if hi <= lo:
        hi = lo + 1.0
    if strategy == "uniform":
        # Pad the right edge so the maximal start point projects inside.
        span = hi - lo
        return Partitioning.uniform(lo, hi + span * 1e-9 + 1e-9, parts)
    if strategy == "equi_depth":
        starts = [s for column in columns for s in column.starts.tolist()]
        return Partitioning.equi_depth(starts, parts)
    raise PlanningError(f"unknown partitioning strategy {strategy!r}")


@dataclass(frozen=True)
class Plan:
    """What a plan method reports once its jobs are handed to the pipeline."""

    #: path holding the plan's final output.
    output: str
    #: the algorithm's self-description (grid dimensions, cascade stages,
    #: partition-interval counts), surfaced on :class:`ExecutionMetrics`
    #: and the ``algorithm`` span.
    shape: Mapping[str, int]
    #: the reducer grid of a grid algorithm (consistent vs total cells).
    grid: Optional["GridSpec"] = None
    #: whether the output holds ``((relation, row), ...)`` partial tuples
    #: the template reorders into ``query.relations`` order.
    partial_tuples: bool = False


@dataclass
class PlanContext:
    """What a plan method works against: the query and its data, the
    sizing knobs, and the pipeline its jobs go to.

    ``pipeline`` is a :class:`~repro.mapreduce.pipeline.Pipeline` for a
    run and the dry stand-in of :mod:`repro.core.predict` for an exact
    prediction — the plan method cannot tell them apart.
    """

    query: IntervalJoinQuery
    data: Mapping[str, Relation]
    num_partitions: int
    pipeline: Pipeline
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: externally supplied partitioning (overrides every count/strategy).
    partitioning: Optional[Partitioning] = None
    partition_strategy: str = "uniform"
    #: metrics of the sub-plans run so far, in order.
    sub_metrics: List[ExecutionMetrics] = field(default_factory=list)

    @property
    def fs(self) -> FileSystem:
        return self.pipeline.fs

    @property
    def attributes(self) -> Dict[str, str]:
        """Each relation's interval attribute (single-attribute queries)."""
        return {
            name: self.query.attributes_of(name)[0]
            for name in self.query.relations
        }

    def partition(self, parts: int) -> Partitioning:
        """The run's partitioning of the time range into ``parts``."""
        return self.partitioning or build_partitioning(
            self.query, self.data, parts, strategy=self.partition_strategy
        )

    def base_input(self, relation: str, mapper: Mapper) -> InputSpec:
        """The input spec of a base relation's file, naming the relation
        as its source: a columnar job reads the relation's own columns."""
        return InputSpec(input_path(relation), mapper, self.data[relation])

    def submit(self, job: JobConf) -> None:
        self.pipeline.run(job)

    def subplan(
        self,
        algorithm: "JoinAlgorithm",
        query: IntervalJoinQuery,
        num_partitions: int,
    ) -> List[Tuple[Row, ...]]:
        """Run another algorithm's plan over part of the query, on a
        child pipeline with its own file system; returns its tuples."""
        sub = replace(
            self,
            query=query,
            data={name: self.data[name] for name in query.relations},
            num_partitions=num_partitions,
            pipeline=self.pipeline.child(),
            partitioning=None,
            sub_metrics=[],
        )
        result = algorithm.run_plan(sub)
        self.sub_metrics.append(result.metrics)
        return result.tuples


class JoinAlgorithm(abc.ABC):
    """A join execution strategy: one :meth:`plan` method plus the
    analytic :meth:`predict` formula; :meth:`run` is the shared template.
    """

    #: Short name used in metrics, planning, and benchmark tables.
    name: str = "abstract"

    def run(
        self,
        query: IntervalJoinQuery,
        data: Mapping[str, Relation],
        *,
        num_partitions: int = 16,
        fs: Optional[FileSystem] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        partitioning: Optional[Partitioning] = None,
        partition_strategy: str = "uniform",
        observer: Optional[Observer] = None,
        options: Optional[RunOptions] = None,
    ) -> JoinResult:
        """Execute the query and return tuples plus metrics.

        Parameters
        ----------
        query, data:
            The join query and its relations.
        num_partitions:
            Partitions of the time range (1-dim algorithms) or per grid
            dimension (matrix algorithms).
        fs:
            File system to run against (fresh in-memory one by default).
        cost_model:
            Converts counters to modelled seconds.
        partitioning:
            Externally supplied partitioning (overrides
            ``num_partitions``/``partition_strategy``).
        partition_strategy:
            ``"uniform"`` or ``"equi_depth"``.
        observer:
            Optional :class:`~repro.obs.TraceRecorder`; the algorithm and
            every job, phase and task of the run is recorded as a span.
            Purely passive — results and counters are identical with or
            without it.
        options:
            How the jobs run — executor, workers, fault plan, retry
            budget, speculation, task timeout — as one resolved
            :class:`~repro.mapreduce.options.RunOptions`
            (:func:`repro.execute` builds it from its keyword arguments).
            ``None`` resolves from the ``REPRO_*`` environment, then the
            defaults.  No option changes tuples, outputs or counters
            (modulo the ``faults`` group).

        The cyclic collector is paused for the run: its pairs and tuples
        are acyclic, and each full collection re-walks all of them (60 %
        of the wall on a 547 k-tuple result; see ``docs/api.md``).
        """
        pipeline = Pipeline(
            fs if fs is not None else InMemoryFileSystem(),
            observer=observer, cost_model=cost_model, options=options,
        )
        with collector_paused():
            return self.run_plan(
                PlanContext(
                    query, data, num_partitions, pipeline, cost_model,
                    partitioning, partition_strategy,
                )
            )

    @abc.abstractmethod
    def plan(self, ctx: PlanContext) -> Plan:
        """The algorithm's job plan, stated once: validate the query
        class, build each :class:`~repro.mapreduce.job.JobConf` and hand
        it to ``ctx.submit`` (reading earlier outputs through ``ctx.fs``),
        then name the final output path and the plan's ``shape``.

        Raising :class:`~repro.errors.UnsatisfiableQueryError` (a
        contradictory join graph) makes the result empty with no jobs.
        """

    def run_plan(self, ctx: PlanContext, collect: bool = True) -> JoinResult:
        """The template every run — and every exact prediction — goes
        through: write the inputs, run :meth:`plan`, collect the named
        output (``collect=False`` leaves the final output unread) and
        fold the pipeline's job results into one metric record.

        Each call is one ``kind="algorithm"`` span around its jobs (a
        sub-plan's nests inside its parent's) that carries the run's
        paper-level numbers: the observed quantities, the output size
        and the plan's shape and grid.
        """
        if ctx.num_partitions < 1:
            raise PlanningError("num_partitions must be >= 1")
        query, pipeline = ctx.query, ctx.pipeline
        observer = pipeline.observer or NullRecorder()
        with observer.span(
            f"algorithm:{self.name}", kind="algorithm", algorithm=self.name
        ) as span:
            write_inputs(ctx.fs, query, ctx.data)
            try:
                plan = self.plan(ctx)
            except UnsatisfiableQueryError:
                return JoinResult(
                    query, [], ExecutionMetrics(algorithm=self.name)
                )
            tuples: List[Tuple[Row, ...]] = (
                list(ctx.fs.read_dir(plan.output)) if collect else []
            )
            if plan.partial_tuples:
                column = {name: i for i, name in enumerate(query.relations)}
                partials, tuples = tuples, []
                for partial in partials:
                    ordered: List[Optional[Row]] = [None] * len(column)
                    for relation, row in partial:
                        ordered[column[relation]] = row
                    tuples.append(tuple(ordered))
            metrics = ExecutionMetrics.from_pipeline(
                self.name, pipeline.result, ctx.cost_model
            )
            if ctx.sub_metrics:
                metrics = ExecutionMetrics.combine(
                    self.name, ctx.sub_metrics + [metrics]
                )
                metrics.output_records = len(tuples)
            metrics.shape = dict(plan.shape)
            span.annotate(
                tuples=len(tuples),
                cycles=metrics.num_cycles,
                shuffled_records=metrics.shuffled_records,
                modelled_seconds=metrics.simulated_seconds,
                observed_quantities=metrics.observed_quantities(),
                output_records=metrics.output_records,
            )
            if plan.grid is not None:
                metrics.consistent_reducers = len(plan.grid.cells)
                metrics.total_reducers = plan.grid.total_cells
            return JoinResult(query, tuples, metrics)

    # ------------------------------------------------------------------
    def predict(self, query, profile, conf=None):
        """Predict the run's communication footprint without running it.

        Parameters
        ----------
        query:
            The :class:`IntervalJoinQuery` to be planned.
        profile:
            A :class:`repro.core.tuning.DataProfile` of the input data
            (from :func:`repro.core.tuning.profile_data`).
        conf:
            A :class:`repro.core.tuning.PredictConfig`.  The default
            *analytic* tier evaluates the paper's Section-6 closed-form
            formulas from the profile alone; ``conf.exact=True`` instead
            interprets :meth:`plan` dry over ``conf.data``
            (:func:`repro.core.predict.exact_prediction`) so the
            predicted counters match the run bit-for-bit — the plan's
            final join is never executed.

        Returns
        -------
        repro.core.tuning.PlanPrediction
            Per-cycle reads / map output / shuffle / reducer loads plus
            plan totals; ``prediction.quantities()`` aligns key-for-key
            with ``ExecutionMetrics.observed_quantities()``.
        """
        raise PlanningError(
            f"algorithm {self.name!r} does not implement predict()"
        )
