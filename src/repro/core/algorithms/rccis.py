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
import operator
from typing import Mapping, Sequence

import numpy as np

from repro.errors import PlanningError
from repro.columnar.batch import IndexBlock
from repro.core.algorithms.base import JoinAlgorithm, Plan, PlanContext
from repro.core.local import TupleReducer, anchored_join, term_columns
from repro.core.query import IntervalJoinQuery, QueryClass, Term
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
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import KernelReducer

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


class FlaggingReducer(KernelReducer):
    """Cycle 1 reduce: decide replication flags for rows starting here;
    one ``(relation, row, flagged)`` record per such row."""

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

    def kernel(self, key, group, counters) -> np.ndarray:
        groups = group.tag_groups()
        columns = {
            relation: term_columns(group, rows, Term(relation, self.attributes[relation]))
            for relation, rows in groups
        }
        decisions = flag_columns(
            self.relations, self.conditions, self.partitioning, int(key), columns
        )
        count_flagged(decisions, counters)
        # One ``gid, relation, flagged`` row per interval starting here:
        # rows starting elsewhere are flagged (or not) by their own start
        # partition.
        outs = [np.empty((0, 3), dtype=np.int64)]
        for relation, rows in groups:
            local, flagged = decisions[relation]
            code = np.full(np.count_nonzero(local), self.relations.index(relation))
            outs.append(np.stack([group.gids[rows][local], code, flagged[local]], axis=1))
        return np.concatenate(outs)

    def format(self, block, store):
        gids, codes, flagged = block.reshape(-1, 3).T
        # Input i of the flag cycle is relation i (``RCCIS.plan``): a
        # gid's low half is its row there.
        rows = gids & 0xFFFFFFFF
        return IndexBlock(self.relations, store.sources(), rows, codes, flagged)


class RouteMapper(RoutedMapper):
    """Cycle 2 map: replicate flagged rows, project the rest.  The
    router reads a flag block's flag column; ``targets``, its per-record
    form, a record's third member."""

    def __init__(self, attributes: Mapping[str, str], partitioning: Partitioning):
        router = FlagRouter(partitioning, operator.itemgetter(2))
        super().__init__(FlaggedRowView(attributes), router)


class JoinReducer(TupleReducer):
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

    def _join(self, key, columns, counters):
        count = functools.partial(counters.increment, "work", "comparisons")
        anchors = [
            Term(name, self.attributes[name]) for name in self.query.relations
        ]
        return anchored_join(
            self.query, count, columns, anchors, self.partitioning, int(key)
        )


class RCCIS(JoinAlgorithm):
    """The paper's two-cycle colocation join algorithm."""

    name = "rccis"

    def _check_query(self, query: IntervalJoinQuery) -> None:
        if query.query_class is not QueryClass.COLOCATION:
            raise PlanningError(
                "RCCIS handles colocation queries; got "
                f"{query.query_class.name} — use the planner"
            )

    def plan(self, ctx: PlanContext) -> Plan:
        query, attributes = ctx.query, ctx.attributes
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
                    ctx.derived_input(
                        "rccis/flags", RouteMapper(attributes, parts), query.relations
                    )
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

    def analytic_prediction(self, query, profile, conf):
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            crossing_fraction,
            replicate_fanout,
            split_factor,
        )

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
