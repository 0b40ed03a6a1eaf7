"""FCTS and FSTC — the hybrid-query baselines (Section 8).

* **FCTS** (First Colocation Then Sequence): solve every colocation
  component with RCCIS, materialise the component results, then join them
  with one All-Matrix-style grid job over the components.
* **FSTC** (First Sequence Then Colocation): solve the sequence sub-query
  with All-Matrix, materialise the partial tuples, then attach the
  remaining relations one at a time with cascade colocation steps.

Both suffer exactly the problem the paper highlights: large intermediate
results are written to and re-read from the distributed file system
between phases — the overhead All-Seq-Matrix exists to avoid.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PlanningError, UnsatisfiableQueryError
from repro.core.algorithms.base import (
    JoinAlgorithm,
    input_path,
    record_algorithm_metrics,
)
from repro.core.algorithms.cascade import (
    PartialTuple,
    _NEW_SIDE,
    _PartialSideMapper,
    _RowSideMapper,
    _StepJoinReducer,
)
from repro.core.algorithms.gen_matrix import GridSpec
from repro.core.algorithms.rccis import RCCIS
from repro.core.algorithms.gen_matrix import AllMatrix
from repro.core.graph import Component, JoinGraph
from repro.core.query import IntervalJoinQuery, JoinCondition, QueryClass
from repro.core.results import ExecutionMetrics, JoinResult
from repro.core.schema import Relation, Row
from repro.intervals.partitioning import Partitioning
from repro.obs.recorder import TraceRecorder
from repro.mapreduce.cost import CostModel, DEFAULT_COST_MODEL
from repro.mapreduce.fs import FileSystem, InMemoryFileSystem
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.options import RunOptions
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.pipeline import Pipeline
from repro.mapreduce.task import MapContext, Mapper, ReduceContext, Reducer

__all__ = ["FCTS", "FSTC"]


def _component_subquery(component: Component) -> IntervalJoinQuery:
    """The colocation sub-query a component encapsulates."""
    return IntervalJoinQuery(list(component.conditions))


def _cross_component_conditions(
    query: IntervalJoinQuery, graph: JoinGraph
) -> List[JoinCondition]:
    """Conditions not internal to any single component (the Q' edges),
    plus intra-component sequence conditions (which component sub-joins,
    being colocation-only, do not evaluate)."""
    internal = set()
    for component in graph.components:
        internal.update(component.conditions)
    return [cond for cond in query.conditions if cond not in internal]


class _ComponentPartialMapper(Mapper):
    """Route one component's materialised partial tuples to grid cells:
    coordinate = start partition of the right-most member interval."""

    def __init__(
        self,
        component: Component,
        grid: GridSpec,
        attributes: Mapping[str, str],
    ) -> None:
        self.component = component
        self.grid = grid
        self.attributes = dict(attributes)
        self.dim = component.index
        self._cells_by_coord: Dict[int, List[Tuple[int, ...]]] = defaultdict(list)
        for cell in grid.cells:
            self._cells_by_coord[cell[self.dim]].append(cell)

    def map(self, record: PartialTuple, context: MapContext) -> None:
        rightmost = max(
            row.interval(self.attributes[relation]).start
            for relation, row in record
        )
        q = self.grid.partitioning.locate(rightmost)
        for cell in self._cells_by_coord.get(q, ()):
            context.emit(cell, (self.dim, record))


class _ComponentJoinReducer(Reducer):
    """Cross-product component partials within a cell, filtered by the
    cross-component conditions."""

    def __init__(
        self,
        query: IntervalJoinQuery,
        conditions: Sequence[JoinCondition],
        dimensions: int,
    ) -> None:
        self.query = query
        self.conditions = list(conditions)
        self.dimensions = dimensions

    def reduce(
        self,
        key: Hashable,
        values: List[Tuple[int, PartialTuple]],
        context: ReduceContext,
    ) -> None:
        partials: List[List[PartialTuple]] = [[] for _ in range(self.dimensions)]
        for dim, record in values:
            partials[dim].append(record)
        if any(not group for group in partials):
            return

        members: Dict[str, Row] = {}

        def extend(dim: int) -> None:
            if dim == self.dimensions:
                context.emit(
                    tuple(
                        (name, members[name]) for name in self.query.relations
                    )
                )
                return
            for record in partials[dim]:
                for relation, row in record:
                    members[relation] = row
                ok = True
                for cond in self.conditions:
                    if (
                        cond.left.relation in members
                        and cond.right.relation in members
                    ):
                        context.counters.increment("work", "comparisons")
                        if not cond.predicate.holds(
                            members[cond.left.relation].interval(
                                cond.left.attribute
                            ),
                            members[cond.right.relation].interval(
                                cond.right.attribute
                            ),
                        ):
                            ok = False
                            break
                if ok:
                    extend(dim + 1)
                for relation, _ in record:
                    members.pop(relation, None)

        extend(0)


class FCTS(JoinAlgorithm):
    """First Colocation Then Sequence."""

    name = "fcts"
    columnar_capable = True

    def __init__(self, grid_parts: Optional[int] = None) -> None:
        self.grid_parts = grid_parts

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
        observer: Optional[TraceRecorder] = None,
        options: Optional[RunOptions] = None,
    ) -> JoinResult:
        if not query.is_single_attribute:
            raise PlanningError("FCTS handles single-attribute queries")
        try:
            graph = JoinGraph(query)
        except UnsatisfiableQueryError:
            return JoinResult(query, [], ExecutionMetrics(algorithm=self.name))
        file_system = fs if fs is not None else InMemoryFileSystem()
        attributes = {
            name: query.attributes_of(name)[0] for name in query.relations
        }
        sub_metrics: List[ExecutionMetrics] = []

        # ----- phase 1: component colocation joins (RCCIS) -----
        component_paths: Dict[int, str] = {}
        intra_seq = [
            cond
            for cond in _cross_component_conditions(query, graph)
            if graph.component_of(cond.left).index
            == graph.component_of(cond.right).index
        ]
        for component in graph.components:
            path = f"fcts/component-{component.index}"
            if len(component.terms) == 1:
                term = next(iter(component.terms))
                records = [
                    ((term.relation, row),) for row in data[term.relation].rows
                ]
                file_system.write(path, records, overwrite=True)
            else:
                subquery = _component_subquery(component)
                subdata = {
                    name: data[name] for name in subquery.relations
                }
                sub_result = RCCIS().run(
                    subquery,
                    subdata,
                    num_partitions=num_partitions,
                    fs=InMemoryFileSystem(),
                    cost_model=cost_model,
                    partition_strategy=partition_strategy,
                    observer=observer,
                    options=options,
                )
                sub_metrics.append(sub_result.metrics)
                seq_filters = [
                    cond
                    for cond in intra_seq
                    if {cond.left.relation, cond.right.relation}
                    <= set(subquery.relations)
                ]
                records = []
                for tuple_rows in sub_result.tuples:
                    members = dict(zip(subquery.relations, tuple_rows))
                    if all(
                        cond.predicate.holds(
                            members[cond.left.relation].interval(
                                cond.left.attribute
                            ),
                            members[cond.right.relation].interval(
                                cond.right.attribute
                            ),
                        )
                        for cond in seq_filters
                    ):
                        records.append(
                            tuple(
                                (name, members[name])
                                for name in subquery.relations
                            )
                        )
                file_system.write(path, records, overwrite=True)
            component_paths[component.index] = path

        # ----- phase 2: All-Matrix over the components -----
        grid_o = self.grid_parts or num_partitions
        pipeline = Pipeline(
            file_system,
            observer=observer,
            cost_model=cost_model,
            options=options,
        )
        from repro.core.algorithms.base import build_partitioning

        parts = partitioning or build_partitioning(
            query, data, grid_o, strategy=partition_strategy
        )
        if len(parts) != grid_o:
            grid_o = len(parts)
        grid = GridSpec(graph, parts)
        cross = [
            cond
            for cond in _cross_component_conditions(query, graph)
            if graph.component_of(cond.left).index
            != graph.component_of(cond.right).index
        ]
        job = JobConf(
            name="fcts-matrix",
            inputs=[
                InputSpec(
                    component_paths[component.index],
                    _ComponentPartialMapper(component, grid, attributes),
                )
                for component in graph.components
            ],
            reducer=_ComponentJoinReducer(query, cross, len(graph.components)),
            output="fcts/output",
            num_reduce_tasks=max(1, len(grid.cells)),
            partitioner=RoundRobinKeyPartitioner(),
        )
        pipeline.run(job)

        raw = list(file_system.read_dir("fcts/output"))
        by_relation = {name: i for i, name in enumerate(query.relations)}
        tuples = []
        for partial in raw:
            ordered: List[Optional[Row]] = [None] * len(query.relations)
            for relation, row in partial:
                ordered[by_relation[relation]] = row
            tuples.append(tuple(ordered))

        matrix_metrics = ExecutionMetrics.from_pipeline(
            self.name, pipeline.result, cost_model
        )
        metrics = ExecutionMetrics.combine(
            self.name, sub_metrics + [matrix_metrics]
        )
        metrics.output_records = len(tuples)
        metrics.consistent_reducers = len(grid.cells)
        metrics.total_reducers = grid.total_cells
        metrics.shape = {
            "grid_dimensions": grid.dimensions,
            "consistent_cells": len(grid.cells),
            "total_cells": grid.total_cells,
            "colocation_subjoins": len(sub_metrics),
        }
        record_algorithm_metrics(observer, metrics)
        return JoinResult(query, tuples, metrics)

    def predict(self, query, profile, conf=None):
        from repro.core.predict import (
            analytic_grid,
            empty_prediction,
            exact_fcts,
        )
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            PredictConfig,
            condition_selectivity,
            crossing_fraction,
            replicate_fanout,
            split_factor,
        )

        conf = conf or PredictConfig()
        if not query.is_single_attribute:
            raise PlanningError("FCTS handles single-attribute queries")
        if conf.exact:
            return exact_fcts(self, query, conf)
        try:
            graph = JoinGraph(query)
        except UnsatisfiableQueryError:
            return empty_prediction(
                self.name, conf, "join graph unsatisfiable; no jobs run"
            )
        parts = conf.num_partitions
        intra_seq = [
            cond
            for cond in _cross_component_conditions(query, graph)
            if graph.component_of(cond.left).index
            == graph.component_of(cond.right).index
        ]
        cycles = []
        rccis_load = 0.0
        partial_counts = []
        for component in graph.components:
            relations = sorted({t.relation for t in component.terms})
            if len(component.terms) == 1:
                partial_counts.append(
                    float(profile.rows_per_relation.get(relations[0], 0))
                )
                continue
            comp_reads = float(
                sum(profile.rows_per_relation.get(r, 0) for r in relations)
            )
            crossing = crossing_fraction(profile, parts)
            out_flag = comp_reads * split_factor(profile, parts)
            out_join = comp_reads * (
                (1.0 - crossing) + crossing * replicate_fanout(parts)
            )
            cycles.append(
                CyclePrediction(
                    name="rccis-flag",
                    records_read=comp_reads,
                    map_output_records=out_flag,
                    shuffled_records=out_flag,
                    reduce_tasks=parts,
                    max_reducer_load=out_flag / parts,
                )
            )
            cycles.append(
                CyclePrediction(
                    name="rccis-join",
                    records_read=comp_reads,
                    map_output_records=out_join,
                    shuffled_records=out_join,
                    reduce_tasks=parts,
                    max_reducer_load=out_join / parts,
                )
            )
            # All RCCIS sub-runs share one (rccis, partition) key space
            # after ExecutionMetrics.combine, so their loads sum.
            rccis_load += (out_flag + out_join) / parts
            count = 1.0
            for r in relations:
                count *= profile.rows_per_relation.get(r, 0)
            for cond in component.conditions:
                count *= condition_selectivity(cond, profile)
            for cond in intra_seq:
                if {cond.left.relation, cond.right.relation} <= set(
                    relations
                ):
                    count *= condition_selectivity(cond, profile)
            partial_counts.append(count)
        grid_o = self.grid_parts or parts
        grid = analytic_grid(graph, [grid_o] * len(graph.components))
        cells = max(1, len(grid.cells))
        reads = sum(partial_counts)
        # Each partial is pinned to one coordinate on its own dimension.
        out = sum(partial_counts) * len(grid.cells) / grid_o
        matrix_load = out / cells
        cycles.append(
            CyclePrediction(
                name="fcts-matrix",
                records_read=reads,
                map_output_records=out,
                shuffled_records=out,
                reduce_tasks=cells,
                max_reducer_load=matrix_load,
            )
        )
        return PlanPrediction(
            algorithm=self.name,
            cost_model=conf.cost_model,
            cycles=tuple(cycles),
            max_reducer_load=max(rccis_load, matrix_load),
            consistent_reducers=len(grid.cells),
            total_reducers=grid.total_cells,
        )


class FSTC(JoinAlgorithm):
    """First Sequence Then Colocation."""

    name = "fstc"
    columnar_capable = True

    def __init__(self, grid_parts: Optional[int] = None) -> None:
        self.grid_parts = grid_parts

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
        observer: Optional[TraceRecorder] = None,
        options: Optional[RunOptions] = None,
    ) -> JoinResult:
        if query.query_class is not QueryClass.HYBRID:
            raise PlanningError("FSTC handles hybrid queries")
        sequence_conditions = [c for c in query.conditions if c.is_sequence]
        try:
            seq_query = IntervalJoinQuery(sequence_conditions)
        except Exception as exc:
            raise PlanningError(
                "FSTC requires the sequence conditions to form a connected "
                f"sub-query: {exc}"
            ) from exc

        file_system = fs if fs is not None else InMemoryFileSystem()
        attributes = {
            name: query.attributes_of(name)[0] for name in query.relations
        }

        # ----- phase 1: the sequence sub-join via All-Matrix -----
        seq_data = {name: data[name] for name in seq_query.relations}
        grid_o = self.grid_parts or num_partitions
        seq_result = AllMatrix().run(
            seq_query,
            seq_data,
            num_partitions=grid_o,
            fs=InMemoryFileSystem(),
            cost_model=cost_model,
            partition_strategy=partition_strategy,
            observer=observer,
            options=options,
        )
        partial_records = [
            tuple((name, row) for name, row in zip(seq_query.relations, t))
            for t in seq_result.tuples
        ]
        current_path = "fstc/seq"
        file_system.write(current_path, partial_records, overwrite=True)

        # ----- phase 2: cascade the remaining relations in -----
        from repro.core.algorithms.base import build_partitioning

        parts = partitioning or build_partitioning(
            query, data, num_partitions, strategy=partition_strategy
        )
        for name in query.relations:
            if not file_system.exists(input_path(name)):
                file_system.write(
                    input_path(name), data[name].rows, overwrite=True
                )

        pipeline = Pipeline(
            file_system,
            observer=observer,
            cost_model=cost_model,
            options=options,
        )
        bound: List[str] = list(seq_query.relations)
        remaining = [n for n in query.relations if n not in bound]
        step = 0
        while remaining:
            step += 1
            nxt: Optional[str] = None
            routing: Optional[JoinCondition] = None
            for candidate in remaining:
                for cond in query.conditions:
                    names = {cond.left.relation, cond.right.relation}
                    if (
                        candidate in names
                        and (names - {candidate}) <= set(bound)
                        and cond.is_colocation
                    ):
                        nxt, routing = candidate, cond
                        break
                if nxt:
                    break
            if nxt is None or routing is None:
                raise PlanningError(
                    "FSTC could not attach remaining relations "
                    f"{remaining} through colocation conditions"
                )
            step_conditions = [
                cond
                for cond in query.conditions
                if nxt in (cond.left.relation, cond.right.relation)
                and ({cond.left.relation, cond.right.relation} - {nxt})
                <= set(bound)
            ]
            member = (
                routing.right.relation
                if routing.left.relation == nxt
                else routing.left.relation
            )
            member_attr = attributes[member]
            bound_is_left = routing.left.relation == member
            bound_op = (
                routing.predicate.left_operator
                if bound_is_left
                else routing.predicate.right_operator
            )
            new_op = (
                routing.predicate.right_operator
                if bound_is_left
                else routing.predicate.left_operator
            )
            output = f"fstc/step-{step:02d}"
            job = JobConf(
                name=f"fstc-{nxt}",
                inputs=[
                    InputSpec(
                        current_path,
                        _PartialSideMapper(member, member_attr, parts, bound_op),
                    ),
                    InputSpec(
                        input_path(nxt),
                        _RowSideMapper(
                            nxt, attributes[nxt], parts, new_op, _NEW_SIDE
                        ),
                    ),
                ],
                reducer=_StepJoinReducer(nxt, routing, step_conditions, attributes),
                output=output,
                num_reduce_tasks=num_partitions,
                partitioner=RoundRobinKeyPartitioner(),
            )
            pipeline.run(job)
            current_path = output
            bound.append(nxt)
            remaining.remove(nxt)

        raw = list(file_system.read_dir(current_path))
        by_relation = {name: i for i, name in enumerate(query.relations)}
        tuples = []
        for partial in raw:
            ordered: List[Optional[Row]] = [None] * len(query.relations)
            for relation, row in partial:
                ordered[by_relation[relation]] = row
            tuples.append(tuple(ordered))

        cascade_metrics = ExecutionMetrics.from_pipeline(
            self.name, pipeline.result, cost_model
        )
        metrics = ExecutionMetrics.combine(
            self.name, [seq_result.metrics, cascade_metrics]
        )
        metrics.output_records = len(tuples)
        metrics.shape = {
            "partition_intervals": len(parts),
            "colocation_steps": step,
        }
        record_algorithm_metrics(observer, metrics)
        return JoinResult(query, tuples, metrics)

    def predict(self, query, profile, conf=None):
        from repro.core.predict import (
            analytic_grid,
            exact_fstc,
            operator_fanout,
        )
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            PredictConfig,
            condition_selectivity,
        )

        conf = conf or PredictConfig()
        if query.query_class is not QueryClass.HYBRID:
            raise PlanningError("FSTC handles hybrid queries")
        if conf.exact:
            return exact_fstc(self, query, conf)
        sequence_conditions = [c for c in query.conditions if c.is_sequence]
        try:
            seq_query = IntervalJoinQuery(sequence_conditions)
        except Exception as exc:
            raise PlanningError(
                "FSTC requires the sequence conditions to form a connected "
                f"sub-query: {exc}"
            ) from exc
        parts = conf.num_partitions
        grid_o = self.grid_parts or parts
        seq_graph = JoinGraph(seq_query)
        grid = analytic_grid(
            seq_graph, [grid_o] * len(seq_graph.components)
        )
        cells = max(1, len(grid.cells))
        seq_reads = float(
            sum(
                profile.rows_per_relation.get(name, 0)
                for name in seq_query.relations
            )
        )
        seq_out = seq_reads * len(grid.cells) / grid_o
        seq_load = seq_out / cells
        cycles = [
            CyclePrediction(
                name="all_matrix-join",
                records_read=seq_reads,
                map_output_records=seq_out,
                shuffled_records=seq_out,
                reduce_tasks=cells,
                max_reducer_load=seq_load,
            )
        ]
        partials = 1.0
        for name in seq_query.relations:
            partials *= profile.rows_per_relation.get(name, 0)
        for cond in sequence_conditions:
            partials *= condition_selectivity(cond, profile)

        colocation_load = 0.0
        bound = list(seq_query.relations)
        remaining = [n for n in query.relations if n not in bound]
        while remaining:
            nxt = None
            routing = None
            for candidate in remaining:
                for cond in query.conditions:
                    names = {cond.left.relation, cond.right.relation}
                    if (
                        candidate in names
                        and (names - {candidate}) <= set(bound)
                        and cond.is_colocation
                    ):
                        nxt, routing = candidate, cond
                        break
                if nxt:
                    break
            if nxt is None or routing is None:
                raise PlanningError(
                    "FSTC could not attach remaining relations "
                    f"{remaining} through colocation conditions"
                )
            step_conditions = [
                cond
                for cond in query.conditions
                if nxt in (cond.left.relation, cond.right.relation)
                and ({cond.left.relation, cond.right.relation} - {nxt})
                <= set(bound)
            ]
            bound_is_left = routing.left.relation != nxt
            bound_op = (
                routing.predicate.left_operator
                if bound_is_left
                else routing.predicate.right_operator
            )
            new_op = (
                routing.predicate.right_operator
                if bound_is_left
                else routing.predicate.left_operator
            )
            n_new = profile.rows_per_relation.get(nxt, 0)
            out = partials * operator_fanout(
                bound_op, profile, parts
            ) + n_new * operator_fanout(new_op, profile, parts)
            load = out / parts
            colocation_load += load
            cycles.append(
                CyclePrediction(
                    name=f"fstc-{nxt}",
                    records_read=partials + n_new,
                    map_output_records=out,
                    shuffled_records=out,
                    reduce_tasks=parts,
                    max_reducer_load=load,
                )
            )
            selectivity = 1.0
            for cond in step_conditions:
                selectivity *= condition_selectivity(cond, profile)
            partials *= n_new * selectivity
            bound.append(nxt)
            remaining.remove(nxt)
        return PlanPrediction(
            algorithm=self.name,
            cost_model=conf.cost_model,
            cycles=tuple(cycles),
            max_reducer_load=max(seq_load, colocation_load),
            consistent_reducers=parts,
            total_reducers=parts,
        )
