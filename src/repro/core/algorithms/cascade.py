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

Intermediate records are *partial tuples* — tuples of ``(relation, row)``
pairs for the relations bound so far.  Every condition joining the new
relation to any bound relation is evaluated in the step's reducer, so the
cascade is correct for arbitrary (including cyclic) join graphs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PlanningError
from repro.columnar.batch import ColumnValues, interval_columns, reduce_columns
from repro.core.algorithms.base import (
    JoinAlgorithm,
    Plan,
    PlanContext,
    input_path,
)
from repro.core.query import IntervalJoinQuery, JoinCondition
from repro.core.schema import Row
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import MapContext, Mapper, ReduceContext, Reducer

__all__ = ["TwoWayCascade"]

#: A partial tuple: ``((relation, row), ...)`` for the bound relations.
PartialTuple = Tuple[Tuple[str, Row], ...]

_NEW_SIDE = "__new__"
_BOUND_SIDE = "__bound__"


def _binding_order(query: IntervalJoinQuery) -> List[str]:
    """A connected relation order (each new relation shares a condition
    with an already-bound one)."""
    remaining = list(query.relations)
    order = [remaining.pop(0)]
    while remaining:
        for candidate in list(remaining):
            touches_bound = any(
                (
                    cond.left.relation == candidate
                    and cond.right.relation in order
                )
                or (
                    cond.right.relation == candidate
                    and cond.left.relation in order
                )
                for cond in query.conditions
            )
            if touches_bound:
                remaining.remove(candidate)
                order.append(candidate)
                break
        else:  # pragma: no cover - queries are validated connected
            order.append(remaining.pop(0))
    return order


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


def _cell_tables(partitioning: Partitioning, by_coord):
    """Dense per-coordinate grid fan-out tables.

    Returns ``(codes, counts, offsets)``: for coordinate ``q`` the cells
    of ``by_coord[q]`` (insertion order, as the records plane emits them)
    are ``codes[offsets[q] : offsets[q] + counts[q]]`` as packed int64
    cell codes.
    """
    import numpy as np

    from repro.columnar.codec import CellKeyCodec

    n = len(partitioning)
    counts = np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n, dtype=np.int64)
    codes: List[int] = []
    for coord in range(n):
        cells = by_coord.get(coord, ())
        offsets[coord] = len(codes)
        counts[coord] = len(cells)
        codes.extend(CellKeyCodec.encode_cell(cell) for cell in cells)
    return np.asarray(codes, dtype=np.int64), counts, offsets


def _grid_map_block(partitioning: Partitioning, tables, starts, tag: str):
    """Vectorised grid-mapper emission: each record fans out to the cells
    pinned at its projected coordinate, in per-coordinate insertion order
    (record-major, matching the records plane's per-record loops)."""
    import numpy as np

    from repro.columnar.batch import MapBlock

    codes, counts, offsets = tables
    q = partitioning.locate_array(starts)
    per = counts[q]
    total = int(per.sum())
    row_idx = np.repeat(np.arange(len(q), dtype=np.int64), per)
    run_offsets = np.cumsum(per) - per
    intra = np.arange(total, dtype=np.int64) - np.repeat(run_offsets, per)
    key_codes = codes[np.repeat(offsets[q], per) + intra]
    return MapBlock.single_tag(key_codes, row_idx, tag)


class _RowSideMapper(Mapper):
    """Route a base relation's rows with one Figure-1 operator."""

    columnar_key_kind = "int"

    def __init__(
        self,
        relation: str,
        attribute: str,
        partitioning: Partitioning,
        operator: MapOperator,
        side: str,
    ) -> None:
        self.relation = relation
        self.attribute = attribute
        self.partitioning = partitioning
        self.operator = operator
        self.side = side

    def _interval_of(self, record: Row):
        return record.interval(self.attribute)

    def map(self, record: Row, context: MapContext) -> None:
        interval = self._interval_of(record)
        payload = (self.side, (self.relation, record))
        if self.operator is MapOperator.PROJECT:
            context.emit(self.partitioning.project(interval), payload)
            return
        if self.operator is MapOperator.SPLIT:
            targets = list(self.partitioning.split(interval))
        else:
            targets = list(self.partitioning.replicate(interval))
            context.counters.increment("join", "replicated_intervals")
            context.counters.increment("join", "replicated_pairs", len(targets))
        for index in targets:
            context.emit(index, payload)

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def encode_intervals(self, records):
        return interval_columns(records, self._interval_of)

    def map_columns(self, starts, ends, records):
        from repro.columnar.batch import MapBlock, operator_map_columns

        key_codes, row_idx, counters = operator_map_columns(
            self.partitioning, self.operator, starts, ends
        )
        return MapBlock.single_tag(key_codes, row_idx, self.side, counters)

    def value_of(self, record: Row):
        return (self.side, (self.relation, record))


class _PartialSideMapper(Mapper):
    """Route partial tuples by one bound member's interval."""

    columnar_key_kind = "int"

    def __init__(
        self,
        member_relation: str,
        attribute: str,
        partitioning: Partitioning,
        operator: MapOperator,
    ) -> None:
        self.member_relation = member_relation
        self.attribute = attribute
        self.partitioning = partitioning
        self.operator = operator

    def _interval_of(self, record: PartialTuple):
        for relation, row in record:
            if relation == self.member_relation:
                return row.interval(self.attribute)
        raise PlanningError(
            f"partial tuple missing member {self.member_relation!r}"
        )

    def map(self, record: PartialTuple, context: MapContext) -> None:
        interval = self._interval_of(record)
        payload = (_BOUND_SIDE, record)
        if self.operator is MapOperator.PROJECT:
            context.emit(self.partitioning.project(interval), payload)
            return
        if self.operator is MapOperator.SPLIT:
            targets = list(self.partitioning.split(interval))
        else:
            targets = list(self.partitioning.replicate(interval))
            context.counters.increment("join", "replicated_intervals")
            context.counters.increment("join", "replicated_pairs", len(targets))
        for index in targets:
            context.emit(index, payload)

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def encode_intervals(self, records):
        return interval_columns(records, self._interval_of)

    def map_columns(self, starts, ends, records):
        from repro.columnar.batch import MapBlock, operator_map_columns

        key_codes, row_idx, counters = operator_map_columns(
            self.partitioning, self.operator, starts, ends
        )
        return MapBlock.single_tag(key_codes, row_idx, _BOUND_SIDE, counters)

    def value_of(self, record: PartialTuple):
        return (_BOUND_SIDE, record)


class _GridRowMapper(Mapper):
    """Sequence step, new-relation side: pin this side's grid dimension."""

    columnar_key_kind = "cell"

    def __init__(
        self,
        relation: str,
        attribute: str,
        partitioning: Partitioning,
        dim: int,
        cells: Sequence[Tuple[int, int]],
        side: str,
    ) -> None:
        self.relation = relation
        self.attribute = attribute
        self.partitioning = partitioning
        self.dim = dim
        self.by_coord: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for cell in cells:
            self.by_coord[cell[dim]].append(cell)
        self.side = side
        self._tables = None

    def _interval_of(self, record: Row):
        return record.interval(self.attribute)

    def map(self, record: Row, context: MapContext) -> None:
        q = self.partitioning.project(self._interval_of(record))
        for cell in self.by_coord.get(q, ()):
            context.emit(cell, (self.side, (self.relation, record)))

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def encode_intervals(self, records):
        return interval_columns(records, self._interval_of)

    def map_columns(self, starts, ends, records):
        if self._tables is None:
            self._tables = _cell_tables(self.partitioning, self.by_coord)
        return _grid_map_block(
            self.partitioning, self._tables, starts, self.side
        )

    def value_of(self, record: Row):
        return (self.side, (self.relation, record))


class _GridPartialMapper(Mapper):
    """Sequence step, intermediate side: pin dimension by member start."""

    columnar_key_kind = "cell"

    def __init__(
        self,
        member_relation: str,
        attribute: str,
        partitioning: Partitioning,
        dim: int,
        cells: Sequence[Tuple[int, int]],
    ) -> None:
        self.member_relation = member_relation
        self.attribute = attribute
        self.partitioning = partitioning
        self.dim = dim
        self.by_coord: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for cell in cells:
            self.by_coord[cell[dim]].append(cell)
        self._tables = None

    def _interval_of(self, record: PartialTuple):
        for relation, row in record:
            if relation == self.member_relation:
                return row.interval(self.attribute)
        raise PlanningError(  # pragma: no cover - structurally impossible
            "partial tuple missing routing member"
        )

    def map(self, record: PartialTuple, context: MapContext) -> None:
        interval = self._interval_of(record)
        q = self.partitioning.project(interval)
        for cell in self.by_coord.get(q, ()):
            context.emit(cell, (_BOUND_SIDE, record))

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def encode_intervals(self, records):
        return interval_columns(records, self._interval_of)

    def map_columns(self, starts, ends, records):
        if self._tables is None:
            self._tables = _cell_tables(self.partitioning, self.by_coord)
        return _grid_map_block(
            self.partitioning, self._tables, starts, _BOUND_SIDE
        )

    def value_of(self, record: PartialTuple):
        return (_BOUND_SIDE, record)


class _StepJoinReducer(Reducer):
    """Join partial tuples (or first-relation rows) with the new relation,
    checking every step condition; exactly-once via the projected /
    pinned side.

    Candidates are generated output-sensitively with a plane sweep on the
    routing condition (the cascade's cost should come from re-reading and
    re-shuffling intermediates, not from a needlessly quadratic local
    join), then filtered by the remaining step conditions.
    """

    def __init__(
        self,
        new_relation: str,
        routing: JoinCondition,
        conditions: Sequence[JoinCondition],
        attributes: Mapping[str, str],
    ) -> None:
        self.new_relation = new_relation
        self.routing = routing
        self.conditions = [c for c in conditions if c is not routing]
        self.attributes = dict(attributes)
        if routing.left.relation == new_relation:
            self._member = routing.right.relation
            self._member_attr = routing.right.attribute
            self._new_attr = routing.left.attribute
            self._new_is_left = True
        else:
            self._member = routing.left.relation
            self._member_attr = routing.left.attribute
            self._new_attr = routing.right.attribute
            self._new_is_left = False

    def reduce(
        self, key: Hashable, values: List[Tuple[str, object]], context: ReduceContext
    ) -> None:
        if isinstance(values, ColumnValues):
            reduce_columns(self, key, values, context)
            return
        partials: List[Tuple[object, PartialTuple]] = []
        new_rows: List[Tuple[object, Row]] = []
        for side, payload in values:
            if side == _BOUND_SIDE:
                partial: PartialTuple = payload  # type: ignore[assignment]
                member_row = dict(partial)[self._member]
                partials.append(
                    (member_row.interval(self._member_attr), partial)
                )
            else:
                _, row = payload  # type: ignore[misc]
                new_rows.append((row.interval(self._new_attr), row))

        from repro.intervals.sweep import join_pairs

        predicate = self.routing.predicate
        if self._new_is_left:
            left_items, right_items = new_rows, partials
        else:
            left_items, right_items = partials, new_rows

        def candidates():
            # The routing condition runs through the per-predicate sweep
            # kernels — output-sensitive, so only satisfying pairs are
            # enumerated (and charged as comparisons, mirroring how
            # LocalJoiner charges the pairs it examines).
            for litem, ritem in join_pairs(left_items, right_items, predicate):
                context.counters.increment("work", "comparisons")
                if self._new_is_left:
                    yield ritem, litem
                else:
                    yield litem, ritem

        for (_, partial), (_, row) in candidates():
            members = dict(partial)
            members[self.new_relation] = row
            ok = True
            for cond in self.conditions:
                context.counters.increment("work", "comparisons")
                left = members[cond.left.relation].interval(
                    cond.left.attribute
                )
                right = members[cond.right.relation].interval(
                    cond.right.attribute
                )
                if not cond.predicate.holds(left, right):
                    ok = False
                    break
            if ok:
                context.emit(partial + ((self.new_relation, row),))

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        # Residual (non-routing) conditions read arbitrary member
        # attributes, which the routing columns do not carry.
        return not self.conditions

    def columnar_outputs(self, key, values: ColumnValues, counters):
        from repro.intervals.sweep import join_pairs

        bound_mask = values.tag_mask(_BOUND_SIDE)
        partials = values.items(bound_mask)
        news = values.items(~bound_mask)
        if self._new_is_left:
            left_items, right_items = news, partials
        else:
            left_items, right_items = partials, news
        outputs = [
            (ritem[1], litem[1]) if self._new_is_left else (litem[1], ritem[1])
            for litem, ritem in join_pairs(
                left_items, right_items, self.routing.predicate
            )
        ]
        if outputs:
            counters.increment("work", "comparisons", len(outputs))
        return outputs

    def materialize_outputs(self, outs, store):
        return [
            store.value(bound_gid)[1]
            + ((self.new_relation, store.value(new_gid)[1][1]),)
            for bound_gid, new_gid in outs
        ]


class _WrapMapper(Mapper):
    """Wrap a base relation's rows as 1-member partial tuples (step 0
    bound side)."""

    columnar_key_kind = "int"

    def __init__(
        self,
        relation: str,
        attribute: str,
        partitioning: Partitioning,
        operator: MapOperator,
    ) -> None:
        self._inner = _PartialSideMapper(
            relation, attribute, partitioning, operator
        )
        self.relation = relation

    def _interval_of(self, record: Row):
        return record.interval(self._inner.attribute)

    def map(self, record: Row, context: MapContext) -> None:
        self._inner.map(((self.relation, record),), context)

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def encode_intervals(self, records):
        return interval_columns(records, self._interval_of)

    def map_columns(self, starts, ends, records):
        # Routing depends only on the encoded endpoints, so the inner
        # mapper's operator logic applies to the raw rows unchanged.
        return self._inner.map_columns(starts, ends, records)

    def value_of(self, record: Row):
        return (_BOUND_SIDE, ((self.relation, record),))


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


def colocation_step_job(
    name: str,
    new: str,
    routing: JoinCondition,
    step_conditions: Sequence[JoinCondition],
    attributes: Mapping[str, str],
    parts: Partitioning,
    bound_path: Optional[str],
    output: str,
    num_reduce_tasks: int,
) -> JobConf:
    """One cascade step routed by a colocation condition: the bound side
    (the partial tuples at ``bound_path``, or the first relation's raw
    rows when ``None``) and the ``new`` relation each go through their
    Figure-1 operator."""
    member, member_attr, new_attr, _ = _step_sides(routing, new)
    bound_op, new_op = step_operators(routing, new)
    if bound_path is None:
        bound_mapper: Mapper = _WrapMapper(member, member_attr, parts, bound_op)
        bound_path = input_path(member)
    else:
        bound_mapper = _PartialSideMapper(member, member_attr, parts, bound_op)
    return JobConf(
        name=name,
        inputs=[
            InputSpec(bound_path, bound_mapper),
            InputSpec(
                input_path(new),
                _RowSideMapper(new, new_attr, parts, new_op, _NEW_SIDE),
            ),
        ],
        reducer=_StepJoinReducer(new, routing, step_conditions, attributes),
        output=output,
        num_reduce_tasks=num_reduce_tasks,
        partitioner=RoundRobinKeyPartitioner(),
    )


def _sequence_step_job(
    new: str,
    routing: JoinCondition,
    step_conditions: Sequence[JoinCondition],
    attributes: Mapping[str, str],
    grid_partitioning: Partitioning,
    bound_path: Optional[str],
    output: str,
) -> JobConf:
    """One cascade step routed by a sequence condition: a 2-D All-Matrix
    over (bound side, new relation)."""
    member, member_attr, new_attr, bound_is_left = _step_sides(routing, new)
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
    if bound_path is None:
        bound_mapper: Mapper = _GridWrapMapper(
            member, member_attr, grid_partitioning, 0, cells
        )
        bound_path = input_path(member)
    else:
        bound_mapper = _GridPartialMapper(
            member, member_attr, grid_partitioning, 0, cells
        )
    return JobConf(
        name=f"cascade-{new}",
        inputs=[
            InputSpec(bound_path, bound_mapper),
            InputSpec(
                input_path(new),
                _GridRowMapper(
                    new, new_attr, grid_partitioning, 1, cells, _NEW_SIDE
                ),
            ),
        ],
        reducer=_StepJoinReducer(new, routing, step_conditions, attributes),
        output=output,
        num_reduce_tasks=max(1, len(cells)),
        partitioner=RoundRobinKeyPartitioner(),
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
        query, attributes = ctx.query, ctx.attributes
        self._check_query(query)
        parts = ctx.partition(ctx.num_partitions)
        order = _binding_order(query)
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
                    f"cascade-{new}", new, routing, step_conditions,
                    attributes, parts, current_path, output,
                    ctx.num_partitions,
                )
            else:
                job = _sequence_step_job(
                    new, routing, step_conditions, attributes,
                    grid_partitioning, current_path, output,
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
            partial_tuples=True,
        )

    def predict(self, query, profile, conf=None):
        from repro.core.predict import exact_prediction, operator_fanout
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            PredictConfig,
            condition_selectivity,
        )

        conf = conf or PredictConfig()
        self._check_query(query)
        if conf.exact:
            return exact_prediction(self, query, conf)
        parts = conf.num_partitions
        grid_o = self._grid_side(parts)
        order = _binding_order(query)
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


class _GridWrapMapper(Mapper):
    """Step-0 bound side of a sequence step: wrap rows as partial tuples
    and pin the grid dimension."""

    columnar_key_kind = "cell"

    def __init__(
        self,
        relation: str,
        attribute: str,
        partitioning: Partitioning,
        dim: int,
        cells: Sequence[Tuple[int, int]],
    ) -> None:
        self._inner = _GridPartialMapper(
            relation, attribute, partitioning, dim, cells
        )
        self.relation = relation

    def _interval_of(self, record: Row):
        return record.interval(self._inner.attribute)

    def map(self, record: Row, context: MapContext) -> None:
        self._inner.map(((self.relation, record),), context)

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def encode_intervals(self, records):
        return interval_columns(records, self._interval_of)

    def map_columns(self, starts, ends, records):
        return self._inner.map_columns(starts, ends, records)

    def value_of(self, record: Row):
        return (_BOUND_SIDE, ((self.relation, record),))
