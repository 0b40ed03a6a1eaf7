"""Shared plumbing for join algorithms.

Every algorithm implements :class:`JoinAlgorithm`: given a query, the data,
and sizing knobs it runs one or more simulated MapReduce jobs and returns a
:class:`~repro.core.results.JoinResult` whose metrics carry the counters the
paper's evaluation tables report.  The algorithm itself states only its
job plan (:meth:`JoinAlgorithm.plan`); :meth:`JoinAlgorithm.run` is the one
template around it, and the exact prediction tier runs the same plan's
map and shuffle dry (:mod:`repro.core.predict`).

Conventions used by all implementations:

* relations are written to the file system as one file per relation,
  ``input/<name>``, holding the raw :class:`~repro.core.schema.Row`
  records; a plan names such an input with :meth:`PlanContext.base_input`;
* a join job commits its output as an
  :class:`~repro.columnar.batch.IndexBlock` — one row-index column per
  member relation — which the next cycle reads through
  :meth:`PlanContext.derived_input`, and the final job's part blocks
  are the run's :class:`~repro.core.results.JoinResult` as they are;
* user counters: ``join:replicated_intervals`` (distinct intervals chosen
  for replication), ``join:replicated_pairs`` (key-value pairs produced by
  replication), ``work:comparisons`` (predicate evaluations inside
  reducers).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.columnar.batch import IndexBlock
from repro.errors import PlanningError, UnsatisfiableQueryError
from repro.core.query import IntervalJoinQuery
from repro.core.results import ExecutionMetrics, JoinResult
from repro.core.schema import Relation
from repro.core.tuning import PredictConfig
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
    """Write every query relation to the file system: the relation
    itself, whose rows are the input's records — an in-memory file
    system keeps it as it is, unread, and a job reads its columns."""
    query.validate_against(data)
    for name in query.relations:
        fs.write(input_path(name), data[name], overwrite=True)


def build_partitioning(
    query: IntervalJoinQuery,
    data: Mapping[str, Relation],
    parts: int,
    strategy: str = "uniform",
) -> Partitioning:
    """A partitioning of the global time range covering all query attributes.

    ``strategy`` is ``"uniform"`` (the paper's equi-width setup) or
    ``"equi_depth"`` (boundaries at start-point quantiles; ablation A2).
    With no data at all both are the uniform split of a default range.
    """
    columns = [
        data[term.relation].columns(term.attribute) for term in query.terms
    ]
    # No data at all: any non-degenerate range works.
    lo, hi = hull(columns) or (0.0, 1.0)
    if hi <= lo:
        hi = lo + 1.0
    if strategy == "uniform" or (strategy == "equi_depth" and not any(map(len, columns))):
        # Pad the right edge so the maximal start point projects inside.
        return Partitioning.covering(lo, hi, parts)
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

    def derived_input(self, path: str, mapper: Mapper, relations: Sequence[str]) -> InputSpec:
        """The input spec of a file an earlier job (or the plan) wrote,
        naming the ``relations`` its records index."""
        return InputSpec(path, mapper, self.relations(relations))

    def relations(self, names: Sequence[str]) -> Dict[str, Relation]:
        """The relations ``names``, by name, in that order."""
        return {name: self.data[name] for name in names}

    def submit(self, job: JobConf) -> None:
        self.pipeline.run(job)

    def subplan(
        self,
        algorithm: "JoinAlgorithm",
        query: IntervalJoinQuery,
        num_partitions: int,
    ) -> IndexBlock:
        """Run another algorithm's plan over part of the query, on a
        child pipeline with its own file system; returns its output, a
        tuple block in ``query.relations`` order."""
        sub = replace(
            self,
            query=query,
            data=self.relations(query.relations),
            num_partitions=num_partitions,
            pipeline=self.pipeline.child(),
            partitioning=None,
            sub_metrics=[],
        )
        result = algorithm.run_plan(sub)
        self.sub_metrics.append(result.metrics)
        blocks = result.blocks() or [IndexBlock.from_records([], sub.relations(query.relations))]
        return IndexBlock.concat([block.select(query.relations, labelled=False) for block in blocks])


class JoinAlgorithm(abc.ABC):
    """A join execution strategy: one :meth:`plan` method plus the
    :meth:`analytic_prediction` formula; :meth:`run` and :meth:`predict`
    are the shared templates.
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
        """Execute the query and return its result: the output blocks plus metrics.

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
            budget — as one resolved :class:`~repro.mapreduce.options.RunOptions`
            (:func:`repro.execute` builds it from its keyword arguments).
            ``None`` resolves from the ``REPRO_*`` environment, then the
            defaults.  No option changes tuples, outputs or counters
            (modulo the ``faults`` group).

        The cyclic collector is paused for the run: what it allocates is
        acyclic, and each collection would re-walk all of it (see
        ``docs/api.md``).  The result's ``Row`` tuples are built later,
        on request, under a pause of their own.
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
        """The algorithm's job plan, stated once: build each
        :class:`~repro.mapreduce.job.JobConf` and hand it to
        ``ctx.submit`` (reading earlier outputs through ``ctx.fs``), then
        name the final output path and the plan's ``shape``.
        :meth:`run_plan` has checked the query class
        (:meth:`_check_query`) before.

        Raising :class:`~repro.errors.UnsatisfiableQueryError` (a
        contradictory join graph) makes the result empty with no jobs, as
        does a query relation with no rows, for which ``plan`` is not
        called.
        """

    def run_plan(self, ctx: PlanContext, collect: bool = True) -> JoinResult:
        """The template every run — and every exact prediction — goes
        through: write the inputs, run :meth:`plan`, take the named
        output as the blocks its reduce tasks committed, one a part
        file, as they are (``collect=False`` leaves it unread, and the
        result empty), and fold the pipeline's job results into one
        metric record.  No ``Row`` tuple is built here: see
        :attr:`JoinResult.tuples`.

        Each call is one ``kind="algorithm"`` span around its jobs (a
        sub-plan's nests inside its parent's) that carries the run's
        paper-level numbers: tuples, cycles, shuffled records, modelled
        seconds and the output size.
        """
        if ctx.num_partitions < 1:
            raise PlanningError("num_partitions must be >= 1")
        query, pipeline = ctx.query, ctx.pipeline
        relations = ctx.relations(query.relations)
        observer = pipeline.observer or NullRecorder()
        with observer.span(
            f"algorithm:{self.name}", kind="algorithm", algorithm=self.name
        ) as span:
            write_inputs(ctx.fs, query, ctx.data)
            self._check_query(query)
            try:
                if any(len(ctx.data[name]) == 0 for name in query.relations):
                    raise UnsatisfiableQueryError("a query relation has no rows")
                plan = self.plan(ctx)
            except UnsatisfiableQueryError:
                return JoinResult.of_blocks(query, [], ExecutionMetrics(algorithm=self.name))
            parts = [part for part in (ctx.fs.parts(plan.output) if collect else []) if len(part)]
            if not all(isinstance(part, IndexBlock) for part in parts):
                # Record files, as a LocalFileSystem reads them back: one
                # conversion, so each relation's rid map is built once.
                parts = [IndexBlock.from_records([r for part in parts for r in part], relations)]
            result = JoinResult.of_blocks(
                query,
                parts,
                ExecutionMetrics.from_pipeline(self.name, pipeline.result, ctx.cost_model),
            )
            metrics = result.metrics
            if ctx.sub_metrics:
                result.metrics = metrics = ExecutionMetrics.combine(
                    self.name, ctx.sub_metrics + [metrics]
                )
                metrics.output_records = len(result)
            metrics.shape = dict(plan.shape)
            span.annotate(
                tuples=len(result),
                cycles=metrics.num_cycles,
                shuffled_records=metrics.shuffled_records,
                modelled_seconds=metrics.simulated_seconds,
                output_records=metrics.output_records,
            )
            if plan.grid is not None:
                metrics.consistent_reducers = len(plan.grid.cells)
                metrics.total_reducers = plan.grid.total_cells
            return result

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
            formulas from the profile alone
            (:meth:`analytic_prediction`); ``conf.exact=True`` instead
            runs :meth:`plan`'s map and shuffle over ``conf.data``
            (:func:`repro.core.predict.exact_prediction`) so the
            predicted counters match the run bit-for-bit — the plan's
            final reduce is never executed.

        Returns
        -------
        repro.core.tuning.PlanPrediction
            Per-cycle reads / map output / shuffle / reducer loads plus
            plan totals; ``prediction.quantities()`` aligns key-for-key
            with ``ExecutionMetrics.observed_quantities()``.
        """
        from repro.core.predict import exact_prediction

        conf = conf or PredictConfig()
        self._check_query(query)
        if conf.exact:
            return exact_prediction(self, query, conf)
        return self.analytic_prediction(query, profile, conf)

    def _check_query(self, query: IntervalJoinQuery) -> None:
        """Raise ``PlanningError`` for a query class not handled here."""

    def analytic_prediction(self, query, profile, conf):
        """The analytic tier: the Section-6 formulas over ``profile``."""
        raise PlanningError(
            f"algorithm {self.name!r} does not implement analytic_prediction()"
        )
