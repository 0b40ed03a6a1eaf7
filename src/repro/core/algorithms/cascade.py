"""2-way Cascade — the multi-cycle baseline (Section 6).

Processes a multi-way query as a series of 2-way joins, one MapReduce job
each, materialising every intermediate result on the (simulated)
distributed file system — which is exactly why the paper finds it slow:
each cycle re-reads and re-shuffles increasingly large intermediates.

Faithful to the paper's experimental setup (Section 7.1), each step's
routing follows the step predicate's kind:

* a **colocation** routing condition uses the Figure-1 operators
  (split the earlier side, project the later);
* a **sequence** routing condition uses a *2-dimensional All-Matrix*: the
  intermediate result and the new relation each form one grid dimension
  and only consistent cells receive data ("Both 2-way joins in 2-way Cd
  are executed using 2D versions of All-Matrix").

Intermediate records are *partial tuples* over the relations bound so far,
committed as a block of their row indices into those relations (one
column per member; a ``((relation, row), ...)`` record each where a file
holds records).  Every condition joining the new relation to any bound
relation is evaluated in the step's reducer, so the cascade is correct
for arbitrary (including cyclic) join graphs.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlanningError
from repro.core.algorithms.base import JoinAlgorithm, Plan, PlanContext
from repro.core.algorithms.routing import (
    BOUND_SIDE,
    NEW_SIDE,
    CellRouter,
    MemberView,
    OperatorRouter,
    RoutedMapper,
    RowView,
)
from repro.core.local import binding_order, term_columns
from repro.core.query import IntervalJoinQuery, JoinCondition, Term
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import SortedColumns, true_pairs
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import KernelReducer

__all__ = ["TwoWayCascade"]


def _step_conditions(
    query: IntervalJoinQuery, bound: Sequence[str], new: str
) -> List[JoinCondition]:
    """All conditions joining ``new`` to the bound set."""
    bound_set = set(bound)
    return [
        cond
        for cond in query.conditions
        if (cond.left.relation == new and cond.right.relation in bound_set)
        or (cond.right.relation == new and cond.left.relation in bound_set)
    ]


def _routing_condition(step_conditions: Sequence[JoinCondition]) -> JoinCondition:
    """Prefer a colocation condition for routing (cheaper: split beats
    replicate / grid fan-out)."""
    for cond in step_conditions:
        if cond.is_colocation:
            return cond
    return step_conditions[0]


class _StepJoinReducer(KernelReducer):
    """Join partial tuples (or first-relation rows) with the new relation,
    checking every step condition; exactly-once via the projected /
    pinned side.

    The join is written once, over endpoint columns
    (:meth:`_join_columns`): the routing condition runs through the pair
    kernel — output-sensitive, the cascade's cost should come from
    re-reading and re-shuffling intermediates, not from a needlessly
    quadratic local join — and each remaining step condition is a mask
    over the survivors.  Each output is a partial tuple over ``bound``
    extended by the new relation's member.
    """

    def __init__(
        self,
        new_relation: str,
        routing: JoinCondition,
        conditions: Sequence[JoinCondition],
        attributes: Mapping[str, str],
        bound: Sequence[str],
    ) -> None:
        self.new_relation = new_relation
        self.bound = list(bound)
        self.routing = routing
        self.conditions = [c for c in conditions if c is not routing]
        self.attributes = dict(attributes)
        #: every term a step condition names, the routing condition's first.
        self._terms: List[Term] = list(
            dict.fromkeys(
                term
                for cond in (routing, *self.conditions)
                for term in (cond.left, cond.right)
            )
        )

    def _join_columns(
        self, columns: Mapping[Term, SortedColumns], counters
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(bound row, new row)`` index columns of the pairs
        satisfying every step condition.  ``columns`` holds one column
        per term: the new relation's rows, or the bound side's partial
        tuples read at that member (every bound term shares one row
        index).  Charges ``work:comparisons`` by the two-relation rule of
        :mod:`repro.core.local`: one per pair satisfying the routing
        condition, then one per further condition evaluated."""
        routing = self.routing
        new_is_left = routing.left.relation == self.new_relation
        no_rows = np.empty(0, dtype=np.int64)
        bound_rows, new_rows = [no_rows], [no_rows]
        charged = 0
        for left_rows, right_rows in true_pairs(
            routing.predicate, columns[routing.left], columns[routing.right]
        ):
            if new_is_left:
                bound, new = right_rows, left_rows
            else:
                bound, new = left_rows, right_rows
            charged += len(new)
            for cond in self.conditions:
                charged += len(new)

                def endpoints(term: Term):
                    column = columns[term]
                    rows = new if term.relation == self.new_relation else bound
                    return column.starts[rows], column.ends[rows]

                keep = cond.predicate.holds_columns(
                    *endpoints(cond.left), *endpoints(cond.right)
                )
                bound, new = bound[keep], new[keep]
            bound_rows.append(bound)
            new_rows.append(new)
        if charged:
            counters.increment("work", "comparisons", charged)
        return np.concatenate(bound_rows), np.concatenate(new_rows)

    def kernel(self, key, group, counters) -> np.ndarray:
        bound_mask = group.tag_mask(BOUND_SIDE)
        bound_at, new_at = np.flatnonzero(bound_mask), np.flatnonzero(~bound_mask)
        columns = {
            term: term_columns(
                group, new_at if term.relation == self.new_relation else bound_at, term
            )
            for term in self._terms
        }
        bound, new = self._join_columns(columns, counters)
        return np.stack([group.gids[bound_at][bound], group.gids[new_at][new]], axis=1)

    def format(self, block, store):
        # The bound partial's members, then the new relation's row.
        return store.block(block.reshape(-1, 2), [self.bound, [self.new_relation]], True)


def _step_sides(routing: JoinCondition, new: str) -> Tuple[str, str, str, bool]:
    """(bound relation, its attribute, new relation's attribute,
    bound_is_left) of a step's routing condition."""
    left, right = routing.left, routing.right
    if left.relation == new:
        return right.relation, right.attribute, left.attribute, False
    return left.relation, left.attribute, right.attribute, True


def step_operators(
    routing: JoinCondition, new: str
) -> Tuple[MapOperator, MapOperator]:
    """The Figure-1 operators of a colocation step: (bound side, new side)."""
    left, right = routing.predicate.left_operator, routing.predicate.right_operator
    return (right, left) if routing.left.relation == new else (left, right)


def _step_job(
    ctx: PlanContext,
    name: str,
    new: str,
    routing: JoinCondition,
    step_conditions: Sequence[JoinCondition],
    bound: Sequence[str],
    bound_path: Optional[str],
    bound_router: Any,
    new_router: Any,
    output: str,
    num_reduce_tasks: int,
) -> JobConf:
    """One cascade step: the bound side — the partial tuples of the
    ``bound`` relations at ``bound_path`` read at the routing member,
    carrying the other members' terms, or, at step 0 (``None``), the
    first relation's base rows, each a one-member partial — and the
    ``new`` relation, each through its router."""
    member, member_attr, new_attr, _ = _step_sides(routing, new)
    if bound_path is None:
        bound_view = RowView(member, member_attr, side=BOUND_SIDE)
        bound_input = ctx.base_input(member, RoutedMapper(bound_view, bound_router))
    else:
        others = [Term(name, ctx.attributes[name]) for name in bound if name != member]
        bound_view = MemberView(member, member_attr, others)
        bound_input = ctx.derived_input(
            bound_path, RoutedMapper(bound_view, bound_router), bound
        )
    new_view = RowView(new, new_attr, side=NEW_SIDE)
    return JobConf(
        name=name,
        inputs=[bound_input, ctx.base_input(new, RoutedMapper(new_view, new_router))],
        reducer=_StepJoinReducer(new, routing, step_conditions, ctx.attributes, bound),
        output=output,
        num_reduce_tasks=num_reduce_tasks,
        partitioner=RoundRobinKeyPartitioner(),
    )


def colocation_step_job(
    ctx: PlanContext,
    name: str,
    new: str,
    routing: JoinCondition,
    step_conditions: Sequence[JoinCondition],
    parts: Partitioning,
    bound: Sequence[str],
    bound_path: Optional[str],
    output: str,
) -> JobConf:
    """One cascade step routed by a colocation condition: the bound side
    (the partial tuples of the ``bound`` relations at ``bound_path``, or
    the first relation's raw rows when ``None``) and the ``new`` relation
    each go through their Figure-1 operator."""
    bound_op, new_op = step_operators(routing, new)
    return _step_job(
        ctx, name, new, routing, step_conditions, bound, bound_path,
        OperatorRouter(parts, bound_op), OperatorRouter(parts, new_op),
        output, ctx.num_partitions,
    )


def _sequence_step_job(
    ctx: PlanContext,
    new: str,
    routing: JoinCondition,
    step_conditions: Sequence[JoinCondition],
    grid_partitioning: Partitioning,
    bound: Sequence[str],
    bound_path: Optional[str],
    output: str,
) -> JobConf:
    """One cascade step routed by a sequence condition: a 2-D All-Matrix
    over (bound side, new relation)."""
    *_, bound_is_left = _step_sides(routing, new)
    # Dimension 0 = bound side, 1 = new side.  Consistency: the
    # enforced-earlier side's coordinate <= the later side's.
    bound_first = (
        routing.predicate.enforces_left_first()
        if bound_is_left
        else routing.predicate.enforces_right_first()
    )
    grid_o = len(grid_partitioning)
    cells: List[Tuple[int, int]] = [
        (i, j)
        for i in range(grid_o)
        for j in range(grid_o)
        if (i <= j if bound_first else j <= i)
    ]
    return _step_job(
        ctx, f"cascade-{new}", new, routing, step_conditions, bound, bound_path,
        CellRouter(grid_partitioning, 0, cells),
        CellRouter(grid_partitioning, 1, cells),
        output, max(1, len(cells)),
    )


class TwoWayCascade(JoinAlgorithm):
    """The paper's cascade-of-2-way-joins baseline."""

    name = "two_way_cascade"

    def __init__(self, grid_parts: Optional[int] = None) -> None:
        #: per-dimension partitions of the 2-D grid used for sequence
        #: steps; default sized so consistent cells ~ num_partitions.
        self.grid_parts = grid_parts

    def _check_query(self, query: IntervalJoinQuery) -> None:
        if not query.is_single_attribute:
            raise PlanningError(
                "TwoWayCascade handles single-attribute queries"
            )

    def _grid_side(self, num_partitions: int) -> int:
        return self.grid_parts or max(
            2, math.ceil(math.sqrt(2 * num_partitions))
        )

    def plan(self, ctx: PlanContext) -> Plan:
        query = ctx.query
        parts = ctx.partition(ctx.num_partitions)
        order = binding_order(query)
        grid_o = self._grid_side(ctx.num_partitions)
        grid_partitioning = (
            parts
            if len(parts) == grid_o
            else Partitioning.uniform(parts.t_min, parts.t_max, grid_o)
        )

        current_path: Optional[str] = None
        for step, new in enumerate(order[1:], start=1):
            step_conditions = _step_conditions(query, order[:step], new)
            routing = _routing_condition(step_conditions)
            output = f"cascade/step-{step:02d}"
            if routing.is_colocation:
                job = colocation_step_job(
                    ctx, f"cascade-{new}", new, routing, step_conditions,
                    parts, order[:step], current_path, output,
                )
            else:
                job = _sequence_step_job(
                    ctx, new, routing, step_conditions,
                    grid_partitioning, order[:step], current_path, output,
                )
            ctx.submit(job)
            current_path = output

        return Plan(
            current_path or "",
            shape={
                "cascade_steps": len(order) - 1,
                "partition_intervals": len(parts),
                "grid_side": grid_o,
            },
        )

    def analytic_prediction(self, query, profile, conf):
        from repro.core.predict import operator_fanout
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            condition_selectivity,
        )

        parts = conf.num_partitions
        grid_o = self._grid_side(parts)
        order = binding_order(query)
        partials = float(profile.rows_per_relation.get(order[0], 0))
        cycles = []
        # Colocation steps key by partition index, sequence steps by
        # (i, j) grid cells — loads collide and sum within each family.
        colocation_load = 0.0
        sequence_load = 0.0
        for step, new in enumerate(order[1:], start=1):
            bound = order[:step]
            step_conditions = _step_conditions(query, bound, new)
            routing = _routing_condition(step_conditions)
            n_new = profile.rows_per_relation.get(new, 0)
            reads = partials + n_new
            if routing.is_colocation:
                bound_op, new_op = step_operators(routing, new)
                out = partials * operator_fanout(
                    bound_op, profile, parts
                ) + n_new * operator_fanout(new_op, profile, parts)
                load = out / parts
                colocation_load += load
                cycles.append(
                    CyclePrediction(
                        name=f"cascade-{new}",
                        records_read=reads,
                        map_output_records=out,
                        shuffled_records=out,
                        reduce_tasks=parts,
                        max_reducer_load=load,
                    )
                )
            else:
                cells = grid_o * (grid_o + 1) // 2
                out = (partials + n_new) * cells / grid_o
                load = out / max(1, cells)
                sequence_load += load
                cycles.append(
                    CyclePrediction(
                        name=f"cascade-{new}",
                        records_read=reads,
                        map_output_records=out,
                        shuffled_records=out,
                        reduce_tasks=max(1, cells),
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
            max_reducer_load=max(colocation_load, sequence_load),
            consistent_reducers=parts,
            total_reducers=parts,
        )
