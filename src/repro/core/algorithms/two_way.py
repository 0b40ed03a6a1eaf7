"""2-way interval joins (Section 4).

A single MapReduce cycle: each side of the predicate is projected, split
or replicated according to the operator table derived from Figure 1 (see
:mod:`repro.intervals.allen`), and each reducer joins what it receives.
The right-most-member ownership rule makes the output exactly-once even
for the predicates that split or replicate one side.
"""

from __future__ import annotations

from repro.errors import PlanningError
from repro.core.algorithms.base import JoinAlgorithm, Plan, PlanContext
from repro.core.algorithms.rccis import JoinReducer
from repro.core.algorithms.routing import OperatorRouter, RoutedMapper, RowView
from repro.core.query import IntervalJoinQuery
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner

__all__ = ["TwoWayJoin", "OperatorMapper"]


class OperatorMapper(RoutedMapper):
    """Applies one of the Section-3 primitives to one relation: a named
    construction of the one mapper (:mod:`repro.core.algorithms.routing`)."""

    def __init__(
        self,
        relation: str,
        attribute: str,
        partitioning: Partitioning,
        operator: MapOperator,
    ) -> None:
        super().__init__(
            RowView(relation, attribute), OperatorRouter(partitioning, operator)
        )


class TwoWayJoin(JoinAlgorithm):
    """Single-condition interval join via the Figure-1 operator table."""

    name = "two_way"

    def _check_query(self, query: IntervalJoinQuery) -> None:
        if len(query.conditions) != 1 or len(query.relations) != 2:
            raise PlanningError(
                "TwoWayJoin handles exactly one condition over two relations"
            )

    def plan(self, ctx: PlanContext) -> Plan:
        query = ctx.query
        self._check_query(query)
        condition = query.conditions[0]
        parts = ctx.partition(ctx.num_partitions)
        ctx.submit(
            JobConf(
                name="two-way",
                inputs=[
                    ctx.base_input(
                        term.relation,
                        OperatorMapper(
                            term.relation, term.attribute, parts, operator
                        ),
                    )
                    for term, operator in (
                        (condition.left, condition.predicate.left_operator),
                        (condition.right, condition.predicate.right_operator),
                    )
                ],
                reducer=JoinReducer(query, ctx.attributes, parts),
                output="twoway/output",
                num_reduce_tasks=ctx.num_partitions,
                partitioner=RoundRobinKeyPartitioner(),
            )
        )
        return Plan(
            "twoway/output",
            shape={"partition_intervals": len(parts), "cycles": 1},
        )

    def predict(self, query, profile, conf=None):
        from repro.core.predict import exact_prediction, operator_fanout
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            PredictConfig,
        )

        conf = conf or PredictConfig()
        self._check_query(query)
        if conf.exact:
            return exact_prediction(self, query, conf)
        condition = query.conditions[0]
        parts = conf.num_partitions
        reads = 0.0
        out = 0.0
        for term, operator in (
            (condition.left, condition.predicate.left_operator),
            (condition.right, condition.predicate.right_operator),
        ):
            n = profile.rows_per_relation.get(term.relation, 0)
            reads += n
            out += n * operator_fanout(operator, profile, parts)
        load = out / parts
        cycle = CyclePrediction(
            name="two-way",
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
