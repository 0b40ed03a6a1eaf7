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

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.batch import IndexBlock
from repro.errors import PlanningError, UnsatisfiableQueryError
from repro.core.algorithms.base import JoinAlgorithm, Plan, PlanContext
from repro.core.algorithms.cascade import colocation_step_job, step_operators
from repro.core.algorithms.gen_matrix import AllMatrix, GridSpec
from repro.core.algorithms.rccis import RCCIS
from repro.core.algorithms.routing import (
    CellRouter,
    RightmostMemberView,
    RoutedMapper,
)
from repro.core.graph import Component, JoinGraph
from repro.core.local import term_columns
from repro.core.query import IntervalJoinQuery, JoinCondition, QueryClass
from repro.intervals.sweep import MAX_CANDIDATE_PAIRS
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import KernelReducer

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


def _filtered(block: IndexBlock, conditions: Sequence[JoinCondition]) -> IndexBlock:
    """The tuples of ``block`` satisfying every one of ``conditions``
    between its members, a mask over its columns; no comparisons are
    charged (a driver-side filter, not a reducer's join)."""
    keep = np.ones(len(block), dtype=bool)
    for cond in conditions:
        left, right = block.term_columns(cond.left), block.term_columns(cond.right)
        keep &= cond.predicate.holds_columns(left.starts, left.ends, right.starts, right.ends)
    return block.take(keep)


def _attachment_steps(
    query: IntervalJoinQuery, bound: Sequence[str]
) -> Iterator[Tuple[str, JoinCondition, List[JoinCondition]]]:
    """FSTC phase 2's order: each remaining relation is attached through
    a colocation condition to the relations bound so far.  Yields
    ``(relation, routing condition, every condition the step checks)``."""
    bound = list(bound)
    remaining = [n for n in query.relations if n not in bound]
    while remaining:
        attach = next(
            (
                (candidate, cond)
                for candidate in remaining
                for cond in query.conditions
                if cond.is_colocation
                and candidate in (cond.left.relation, cond.right.relation)
                and {cond.left.relation, cond.right.relation} - {candidate}
                <= set(bound)
            ),
            None,
        )
        if attach is None:
            raise PlanningError(
                "FSTC could not attach remaining relations "
                f"{remaining} through colocation conditions"
            )
        nxt, routing = attach
        yield nxt, routing, [
            cond
            for cond in query.conditions
            if nxt in (cond.left.relation, cond.right.relation)
            and {cond.left.relation, cond.right.relation} - {nxt} <= set(bound)
        ]
        bound.append(nxt)
        remaining.remove(nxt)


class _ComponentJoinReducer(KernelReducer):
    """Cross-product component partials within a cell, filtered by the
    cross-component conditions.

    The dims' partials expand in lexicographic order, prefix blocks of at
    most ``sweep.MAX_CANDIDATE_PAIRS`` candidates at a time.  Binding a
    dim evaluates every condition between the dims bound so far — those
    between earlier dims again — in ``conditions`` order, each over the
    survivors of the one before, one ``work:comparisons`` per survivor
    evaluated.  Each output is one row of the dims' partial gids.
    """

    def __init__(
        self,
        query: IntervalJoinQuery,
        conditions: Sequence[JoinCondition],
        members: Sequence[Sequence[str]],
    ) -> None:
        self.query = query
        self.conditions = list(conditions)
        #: per dim, the relations its partials hold.
        self.members = [list(names) for names in members]
        self.dim_of = {
            relation: dim for dim, names in enumerate(members) for relation in names
        }
        self.dimensions = len(members)

    def kernel(self, key, group, counters) -> np.ndarray:
        rows = [np.flatnonzero(group.tag_mask(dim)) for dim in range(self.dimensions)]
        outputs = [np.empty((0, self.dimensions), dtype=np.int64)]
        if all(len(at) for at in rows):
            columns = {
                term: term_columns(group, rows[self.dim_of[term.relation]], term)
                for cond in self.conditions
                for term in (cond.left, cond.right)
            }
            for binding in self._extend(0, [np.arange(len(rows[0]))], rows, columns, counters):
                outputs.append(np.stack(
                    [group.gids[at][bound] for at, bound in zip(rows, binding)], axis=1
                ))
        return np.concatenate(outputs)

    def _extend(self, dim, binding, rows, columns, counters):
        """Filter a block of bindings of dims ``0..dim`` (one index column
        per dim into its values), then bind the next dim block by block."""
        for cond in self.conditions:
            left, right = (self.dim_of[t.relation] for t in (cond.left, cond.right))
            if max(left, right) > dim or not len(binding[0]):
                continue
            counters.increment("work", "comparisons", len(binding[0]))
            lc, rc = columns[cond.left], columns[cond.right]
            keep = cond.predicate.holds_columns(
                lc.starts[binding[left]], lc.ends[binding[left]],
                rc.starts[binding[right]], rc.ends[binding[right]],
            )
            binding = [bound[keep] for bound in binding]
        if dim + 1 == self.dimensions:
            yield binding
            return
        width = len(rows[dim + 1])
        step = max(1, MAX_CANDIDATE_PAIRS // width)
        for lo in range(0, len(binding[0]), step):
            block = [bound[lo : lo + step] for bound in binding]
            yield from self._extend(
                dim + 1,
                [np.repeat(bound, width) for bound in block]
                + [np.tile(np.arange(width), len(block[0]))],
                rows, columns, counters,
            )

    def format(self, block, store):
        # Each dim's partial members, in the query's relation order.
        partials = store.block(block.reshape(-1, self.dimensions), self.members, True)
        return partials.select(self.query.relations) if len(partials) else partials


class FCTS(JoinAlgorithm):
    """First Colocation Then Sequence."""

    name = "fcts"

    def __init__(self, grid_parts: Optional[int] = None) -> None:
        self.grid_parts = grid_parts

    def _check_query(self, query: IntervalJoinQuery) -> None:
        if not query.is_single_attribute:
            raise PlanningError("FCTS handles single-attribute queries")

    def plan(self, ctx: PlanContext) -> Plan:
        query, attributes = ctx.query, ctx.attributes
        graph = JoinGraph(query)
        grid = GridSpec(graph, ctx.partition(self.grid_parts or ctx.num_partitions))
        non_internal = _cross_component_conditions(query, graph)
        members = [
            sorted({term.relation for term in component.terms})
            for component in graph.components
        ]

        # ----- phase 1: component colocation joins (RCCIS) -----
        inputs = []
        for component in graph.components:
            dim, path = component.index, f"fcts/component-{component.index}"
            if len(component.terms) == 1:
                relation = ctx.data[members[dim][0]]
                block = IndexBlock(members[dim], (relation,), np.arange(len(relation)))
            else:
                subquery = _component_subquery(component)
                names = subquery.relations
                block = _filtered(
                    ctx.subplan(RCCIS(), subquery, ctx.num_partitions),
                    [
                        cond
                        for cond in non_internal
                        if {cond.left.relation, cond.right.relation} <= set(names)
                    ],
                ).select(names)
            ctx.fs.write(path, block, overwrite=True)
            # Coordinate = start partition of the component's right-most
            # member interval.
            view = RightmostMemberView(attributes, dim, members[dim])
            router = CellRouter(grid.partitioning_of(dim), dim, grid.cells)
            inputs.append(ctx.derived_input(path, RoutedMapper(view, router), members[dim]))

        # ----- phase 2: All-Matrix over the components -----
        cross = [
            cond
            for cond in non_internal
            if graph.component_of(cond.left).index
            != graph.component_of(cond.right).index
        ]
        ctx.submit(
            JobConf(
                name="fcts-matrix",
                inputs=inputs,
                reducer=_ComponentJoinReducer(query, cross, members),
                output="fcts/output",
                num_reduce_tasks=max(1, len(grid.cells)),
                partitioner=RoundRobinKeyPartitioner(),
            )
        )
        return Plan(
            "fcts/output",
            shape={
                **grid.shape(),
                "colocation_subjoins": len(ctx.sub_metrics),
            },
            grid=grid,
        )

    def analytic_prediction(self, query, profile, conf):
        from repro.core.predict import analytic_grid, empty_prediction
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            condition_selectivity,
            crossing_fraction,
            replicate_fanout,
            split_factor,
        )

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

    def __init__(self, grid_parts: Optional[int] = None) -> None:
        self.grid_parts = grid_parts

    def _check_query(self, query: IntervalJoinQuery) -> None:
        self._sequence_subquery(query)

    def _sequence_subquery(self, query: IntervalJoinQuery) -> IntervalJoinQuery:
        """The connected sequence sub-query phase 1 solves."""
        if query.query_class is not QueryClass.HYBRID:
            raise PlanningError("FSTC handles hybrid queries")
        try:
            return IntervalJoinQuery(
                [c for c in query.conditions if c.is_sequence]
            )
        except Exception as exc:
            raise PlanningError(
                "FSTC requires the sequence conditions to form a connected "
                f"sub-query: {exc}"
            ) from exc

    def plan(self, ctx: PlanContext) -> Plan:
        query = ctx.query
        seq_query = self._sequence_subquery(query)

        # ----- phase 1: the sequence sub-join via All-Matrix -----
        # Its relations' colocation conditions, which no later step
        # checks, filter the partials.
        seq_tuples = _filtered(
            ctx.subplan(AllMatrix(), seq_query, self.grid_parts or ctx.num_partitions),
            [
                cond
                for cond in query.conditions
                if cond.is_colocation
                and {cond.left.relation, cond.right.relation} <= set(seq_query.relations)
            ],
        )
        current_path = "fstc/seq"
        ctx.fs.write(current_path, seq_tuples.select(seq_query.relations), overwrite=True)

        # ----- phase 2: cascade the remaining relations in -----
        parts = ctx.partition(ctx.num_partitions)
        bound = list(seq_query.relations)
        step = 0
        for nxt, routing, step_conditions in _attachment_steps(query, bound):
            step += 1
            output = f"fstc/step-{step:02d}"
            ctx.submit(
                colocation_step_job(
                    ctx, f"fstc-{nxt}", nxt, routing, step_conditions,
                    parts, bound, current_path, output,
                )
            )
            bound.append(nxt)
            current_path = output
        return Plan(
            current_path,
            shape={
                "partition_intervals": len(parts),
                "colocation_steps": step,
            },
        )

    def analytic_prediction(self, query, profile, conf):
        from repro.core.predict import analytic_grid, operator_fanout
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            condition_selectivity,
        )

        seq_query = self._sequence_subquery(query)
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
        for cond in seq_query.conditions:
            partials *= condition_selectivity(cond, profile)

        colocation_load = 0.0
        for nxt, routing, step_conditions in _attachment_steps(
            query, seq_query.relations
        ):
            bound_op, new_op = step_operators(routing, nxt)
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
        return PlanPrediction(
            algorithm=self.name,
            cost_model=conf.cost_model,
            cycles=tuple(cycles),
            max_reducer_load=max(seq_load, colocation_load),
            consistent_reducers=parts,
            total_reducers=parts,
        )
