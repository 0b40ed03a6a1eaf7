"""RCCIS — Replicate Consistent And Crossing Interval Sets (Section 6.1).

The paper's algorithm for multi-way colocation joins over a single
interval attribute.  Two MapReduce cycles:

1. **Flagging.**  Every relation is *split*, so reducer ``p`` receives all
   intervals intersecting partition-interval ``p``.  The reducer finds the
   intervals that belong to some consistent interval-set crossing ``p``
   (conditions C1 + C2, decided by
   :func:`~repro.core.algorithms.crossing.flag_columns`) and writes
   each interval *starting* in ``p`` back to disk exactly once, flagged
   for replication when it participates in such a set.
2. **Join.**  Flagged intervals are *replicated* (start partition and all
   following), the rest are *projected*.  Reducer ``p`` joins the rows it
   receives and emits exactly the tuples whose right-most member starts in
   ``p`` — the reducer the paper assigns each output tuple to.

Intra-component sequence conditions are not supported here (RCCIS is the
colocation-query algorithm); the planner routes other query classes to
All-Matrix / All-Seq-Matrix / Gen-Matrix.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import PlanningError
from repro.columnar.batch import ColumnValues, object_column, reduce_columns
from repro.core.algorithms.base import JoinAlgorithm, Plan, PlanContext
from repro.core.local import (
    anchored_join,
    attribute_columns,
    row_columns,
    take_tuples,
)
from repro.core.query import IntervalJoinQuery, QueryClass, Term
from repro.core.schema import Row
from repro.core.algorithms.crossing import count_flagged, flag_columns
from repro.core.algorithms.routing import (
    FlaggedRowView,
    FlagRouter,
    OperatorRouter,
    RoutedMapper,
    RowView,
)
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import SortedColumns
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import ReduceContext, Reducer

__all__ = ["RCCIS", "SplitMapper", "FlaggingReducer", "RouteMapper", "JoinReducer"]


class SplitMapper(RoutedMapper):
    """Cycle 1 map: split one relation's rows over the partitioning."""

    def __init__(
        self, relation: str, attribute: str, partitioning: Partitioning
    ) -> None:
        super().__init__(
            RowView(relation, attribute),
            OperatorRouter(partitioning, MapOperator.SPLIT),
        )


class FlaggingReducer(Reducer):
    """Cycle 1 reduce: decide replication flags for rows starting here."""

    def __init__(
        self,
        query: IntervalJoinQuery,
        relations: Sequence[str],
        attributes: Mapping[str, str],
        partitioning: Partitioning,
    ) -> None:
        self.query = query
        self.relations = list(relations)
        self.attributes = dict(attributes)
        self.partitioning = partitioning
        self.conditions = query.conditions_as_triples()

    def _decide(self, key, columns, counters):
        """Per relation received, the ``(local, flagged)`` row masks."""
        decisions = flag_columns(
            self.relations, self.conditions, self.partitioning, int(key),
            columns,
        )
        count_flagged(decisions, counters)
        return decisions

    def reduce(
        self, key: Hashable, values: List[Tuple[str, Row]], context: ReduceContext
    ) -> None:
        if isinstance(values, ColumnValues):
            reduce_columns(self, key, values, context)
            return
        rows_by_relation: Dict[str, List[Row]] = defaultdict(list)
        for relation, row in values:
            rows_by_relation[relation].append(row)
        columns = {
            relation: attribute_columns(rows, self.attributes[relation])
            for relation, rows in rows_by_relation.items()
        }
        decisions = self._decide(key, columns, context.counters)
        for relation, (local, flagged) in decisions.items():
            rows = rows_by_relation[relation]
            # Rows starting elsewhere are flagged (or not) by their own
            # start partition.
            for index in np.flatnonzero(local).tolist():
                context.emit((relation, rows[index], bool(flagged[index])))

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def columnar_outputs(self, key, values: ColumnValues, counters):
        groups = values.tag_groups()
        columns = {
            relation: SortedColumns(values.starts[rows], values.ends[rows])
            for relation, rows in groups
        }
        decisions = self._decide(key, columns, counters)
        # One ``gid, flagged, relation`` row per interval starting here.
        outs = [np.empty((0, 3), dtype=np.int64)]
        for relation, rows in groups:
            local, flagged = decisions[relation]
            gids = values.gids[rows][local]
            code = np.full(len(gids), self.relations.index(relation))
            outs.append(np.stack([gids, flagged[local], code], axis=1))
        return np.concatenate(outs)

    def materialize_outputs(self, outs, store):
        gids, flagged, codes = np.asarray(outs, dtype=np.int64).reshape(-1, 3).T
        relations = object_column(self.relations)[codes]
        return list(
            zip(relations, store.take(gids), flagged.astype(bool).tolist())
        )


class RouteMapper(RoutedMapper):
    """Cycle 2 map: replicate flagged rows, project the rest."""

    def __init__(self, attributes: Mapping[str, str], partitioning: Partitioning):
        view = FlaggedRowView(attributes)
        super().__init__(view, FlagRouter(partitioning, view.flagged))


class JoinReducer(Reducer):
    """Cycle 2 reduce: join received rows; emit tuples owned by this
    partition (right-most member starts here).

    Every row a cycle-2 reducer receives starts in this partition or an
    earlier one (projection pins, replication goes rightward), so the
    reducer owns a tuple iff at least one member is *local* (starts
    here) — the ownership :func:`~repro.core.local.anchored_join`
    decomposes exactly-once, anchoring the relations in query order.
    """

    def __init__(
        self,
        query: IntervalJoinQuery,
        attributes: Mapping[str, str],
        partitioning: Partitioning,
    ) -> None:
        self.query = query
        self.attributes = dict(attributes)
        self.partitioning = partitioning

    def reduce(
        self, key: Hashable, values: List[Tuple[str, Row]], context: ReduceContext
    ) -> None:
        if isinstance(values, ColumnValues):
            reduce_columns(self, key, values, context)
            return
        rows_by_relation: Dict[str, List[Row]] = defaultdict(list)
        for relation, row in values:
            rows_by_relation[relation].append(row)
        columns, rows = row_columns(self.query, rows_by_relation)
        for binding in self._join(key, columns, context.counters):
            context.emit_many(take_tuples(rows, binding))

    def _join(self, key, columns, counters):
        """The bindings this partition owns, over either plane's columns."""
        # Counting through the task's own counters, not a cached
        # joiner's: this reducer instance is shared across concurrently
        # running tasks under the threads executor.
        count = functools.partial(counters.increment, "work", "comparisons")
        anchors = [
            Term(name, self.attributes[name]) for name in self.query.relations
        ]
        return anchored_join(
            self.query, count, columns, anchors, self.partitioning, int(key)
        )

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        # A group carries one interval per value — the routing interval —
        # which is every term's column only when each relation joins on
        # a single attribute.
        return self.query.is_single_attribute

    def columnar_outputs(self, key, values: ColumnValues, counters):
        gids, columns = {}, {}
        for name in self.query.relations:
            rows = np.flatnonzero(values.tag_mask(name))
            gids[name] = values.gids[rows]
            columns[Term(name, self.attributes[name])] = SortedColumns(
                values.starts[rows], values.ends[rows]
            )
        # One row of member gids per tuple.
        blocks = [np.empty((0, len(gids)), dtype=np.int64)]
        for binding in self._join(key, columns, counters):
            blocks.append(
                np.stack([gids[name][binding[name]] for name in gids], axis=1)
            )
        return np.concatenate(blocks)

    def materialize_outputs(self, outs, store):
        # One object-array take per relation, zipped into tuples.
        members = np.asarray(outs, dtype=np.int64).reshape(
            -1, len(self.query.relations)
        )
        return list(zip(*map(store.take, members.T)))


class RCCIS(JoinAlgorithm):
    """The paper's two-cycle colocation join algorithm."""

    name = "rccis"

    def plan(self, ctx: PlanContext) -> Plan:
        query, attributes = ctx.query, ctx.attributes
        if query.query_class is not QueryClass.COLOCATION:
            raise PlanningError(
                "RCCIS handles colocation queries; got "
                f"{query.query_class.name} — use the planner"
            )
        parts = ctx.partition(ctx.num_partitions)
        ctx.submit(
            JobConf(
                name="rccis-flag",
                inputs=[
                    ctx.base_input(
                        name, SplitMapper(name, attributes[name], parts)
                    )
                    for name in query.relations
                ],
                reducer=FlaggingReducer(
                    query, query.relations, attributes, parts
                ),
                output="rccis/flags",
                num_reduce_tasks=ctx.num_partitions,
                partitioner=RoundRobinKeyPartitioner(),
            )
        )
        ctx.submit(
            JobConf(
                name="rccis-join",
                inputs=[
                    InputSpec("rccis/flags", RouteMapper(attributes, parts))
                ],
                reducer=JoinReducer(query, attributes, parts),
                output="rccis/output",
                num_reduce_tasks=ctx.num_partitions,
                partitioner=RoundRobinKeyPartitioner(),
            )
        )
        return Plan(
            "rccis/output",
            shape={"partition_intervals": len(parts), "cycles": 2},
        )

    def predict(self, query, profile, conf=None):
        from repro.core.predict import exact_prediction
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            PredictConfig,
            crossing_fraction,
            replicate_fanout,
            split_factor,
        )

        conf = conf or PredictConfig()
        if conf.exact:
            return exact_prediction(self, query, conf)
        parts = conf.num_partitions
        n = profile.total_rows
        out_flag = n * split_factor(profile, parts)
        crossing = crossing_fraction(profile, parts)
        # Flag records: each row re-emerges exactly once (at the partition
        # its interval starts in), flagged or not.
        out_join = n * (
            (1.0 - crossing) + crossing * replicate_fanout(parts)
        )
        cycles = (
            CyclePrediction(
                name="rccis-flag",
                records_read=float(n),
                map_output_records=out_flag,
                shuffled_records=out_flag,
                reduce_tasks=parts,
                max_reducer_load=out_flag / parts,
            ),
            CyclePrediction(
                name="rccis-join",
                records_read=float(n),
                map_output_records=out_join,
                shuffled_records=out_join,
                reduce_tasks=parts,
                max_reducer_load=out_join / parts,
            ),
        )
        # Both cycles key by partition index, so loads collide and sum.
        return PlanPrediction(
            algorithm=self.name,
            cost_model=conf.cost_model,
            cycles=cycles,
            max_reducer_load=(out_flag + out_join) / parts,
            consistent_reducers=parts,
            total_reducers=parts,
        )
