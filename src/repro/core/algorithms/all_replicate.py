"""All-Replicate — the naive single-cycle baseline (Section 6).

Projects a relation provably maximal under the query's less-than-orders
(every output tuple's right-most interval comes from it) and replicates
every other relation; when no relation is provably maximal all relations
are replicated.  Reducer ``p`` joins what it receives and emits the tuples
whose right-most member starts in ``p``, which makes the output
exactly-once even when everything is replicated.

Works for any single-attribute query (colocation, sequence or hybrid) —
at a communication cost the paper's efficient algorithms exist to avoid.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import PlanningError
from repro.core.algorithms.base import JoinAlgorithm, Plan, PlanContext
from repro.core.algorithms.rccis import JoinReducer
from repro.core.algorithms.routing import OperatorRouter, RoutedMapper, RowView
from repro.core.query import IntervalJoinQuery
from repro.intervals.allen import MapOperator
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner

__all__ = ["AllReplicate", "maximal_relations"]


def maximal_relations(query: IntervalJoinQuery) -> List[str]:
    """Relations provably right-most under the enforced less-than orders.

    ``R`` qualifies when every other relation is transitively enforced to
    start no later than ``R`` — then in every output tuple an ``R`` row is
    (one of) the right-most member(s), so projecting ``R`` is safe.
    """
    # successor[a] = relations enforced to start at-or-after a.
    reachable: Dict[str, Set[str]] = {
        name: {name} for name in query.relations
    }
    edges: List[Tuple[str, str]] = []
    for cond in query.conditions:
        if cond.predicate.enforces_left_first():
            edges.append((cond.left.relation, cond.right.relation))
        if cond.predicate.enforces_right_first():
            edges.append((cond.right.relation, cond.left.relation))
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            update = reachable[a] | reachable[b]
            if update != reachable[a]:
                reachable[a] = update
                changed = True
    # R is maximal when R is reachable (<=-wise) from every relation.
    out = [
        name
        for name in query.relations
        if all(name in reachable[other] for other in query.relations)
    ]
    return out


class AllReplicate(JoinAlgorithm):
    """The replicate-everything single-cycle baseline."""

    name = "all_replicate"

    def plan(self, ctx: PlanContext) -> Plan:
        query = ctx.query
        if not query.is_single_attribute:
            raise PlanningError(
                "All-Replicate handles single-attribute queries; use "
                "Gen-Matrix for multi-attribute ones"
            )
        attributes = ctx.attributes
        parts = ctx.partition(ctx.num_partitions)
        maximal = maximal_relations(query)
        projected = maximal[0] if maximal else None
        operator_of = {name: MapOperator.REPLICATE for name in query.relations}
        if projected is not None:
            operator_of[projected] = MapOperator.PROJECT
        ctx.submit(
            JobConf(
                name="all-replicate",
                inputs=[
                    ctx.base_input(
                        name,
                        RoutedMapper(
                            RowView(name, attributes[name]),
                            OperatorRouter(parts, operator_of[name]),
                        ),
                    )
                    for name in query.relations
                ],
                reducer=JoinReducer(query, attributes, parts),
                output="allrep/output",
                num_reduce_tasks=ctx.num_partitions,
                partitioner=RoundRobinKeyPartitioner(),
            )
        )
        return Plan(
            "allrep/output",
            shape={
                "partition_intervals": len(parts),
                "replicated_relations": len(query.relations)
                - (1 if projected is not None else 0),
                "cycles": 1,
            },
        )

    def predict(self, query, profile, conf=None):
        from repro.core.predict import exact_prediction
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            PredictConfig,
            replicate_fanout,
        )

        conf = conf or PredictConfig()
        if conf.exact:
            return exact_prediction(self, query, conf)
        parts = conf.num_partitions
        maximal = maximal_relations(query)
        projected = maximal[0] if maximal else None
        reads = 0.0
        out = 0.0
        for name in query.relations:
            n = profile.rows_per_relation.get(name, 0)
            reads += n
            out += n * (1.0 if name == projected else replicate_fanout(parts))
        load = out / parts
        cycle = CyclePrediction(
            name="all-replicate",
            records_read=reads,
            map_output_records=out,
            shuffled_records=out,
            reduce_tasks=parts,
            max_reducer_load=load,
        )
        return PlanPrediction(
            algorithm=self.name,
            cost_model=conf.cost_model,
            cycles=(cycle,),
            max_reducer_load=load,
            consistent_reducers=parts,
            total_reducers=parts,
        )
