"""2-way interval joins (Section 4).

A single MapReduce cycle: each side of the predicate is projected, split
or replicated according to the operator table derived from Figure 1 (see
:mod:`repro.intervals.allen`), and each reducer joins what it receives.
The right-most-member ownership rule makes the output exactly-once even
for the predicates that split or replicate one side.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import PlanningError
from repro.core.algorithms.base import JoinAlgorithm, input_path
from repro.core.algorithms.rccis import JoinReducer
from repro.core.query import IntervalJoinQuery
from repro.core.results import JoinResult
from repro.core.schema import Relation, Row
from repro.intervals.allen import MapOperator
from repro.intervals.partitioning import Partitioning
from repro.obs.recorder import TraceRecorder
from repro.mapreduce.cost import CostModel, DEFAULT_COST_MODEL
from repro.mapreduce.fs import FileSystem
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.options import RunOptions
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import MapContext, Mapper

__all__ = ["TwoWayJoin", "OperatorMapper"]


class OperatorMapper(Mapper):
    """Applies one of the Section-3 primitives to one relation."""

    columnar_key_kind = "int"

    def __init__(
        self,
        relation: str,
        attribute: str,
        partitioning: Partitioning,
        operator: MapOperator,
    ) -> None:
        self.relation = relation
        self.attribute = attribute
        self.partitioning = partitioning
        self.operator = operator

    def map(self, record: Row, context: MapContext) -> None:
        interval = record.interval(self.attribute)
        if self.operator is MapOperator.PROJECT:
            context.emit(
                self.partitioning.project(interval), (self.relation, record)
            )
            return
        if self.operator is MapOperator.SPLIT:
            targets = list(self.partitioning.split(interval))
        else:
            targets = list(self.partitioning.replicate(interval))
            context.counters.increment("join", "replicated_intervals")
            context.counters.increment("join", "replicated_pairs", len(targets))
        for index in targets:
            context.emit(index, (self.relation, record))

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def encode_intervals(self, records):
        import numpy as np

        starts = np.empty(len(records), dtype=np.float64)
        ends = np.empty(len(records), dtype=np.float64)
        for i, record in enumerate(records):
            interval = record.interval(self.attribute)
            starts[i] = interval.start
            ends[i] = interval.end
        return starts, ends

    def map_columns(self, starts, ends, records):
        from repro.columnar.batch import MapBlock, operator_map_columns

        key_codes, row_idx, counters = operator_map_columns(
            self.partitioning, self.operator, starts, ends
        )
        return MapBlock.single_tag(key_codes, row_idx, self.relation, counters)

    def value_of(self, record: Row):
        return (self.relation, record)


class TwoWayJoin(JoinAlgorithm):
    """Single-condition interval join via the Figure-1 operator table."""

    name = "two_way"
    columnar_capable = True

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
        if len(query.conditions) != 1 or len(query.relations) != 2:
            raise PlanningError(
                "TwoWayJoin handles exactly one condition over two relations"
            )
        condition = query.conditions[0]
        file_system, pipeline, parts = self._setup(
            query, data, num_partitions, fs,
            partitioning, partition_strategy,
            observer=observer, cost_model=cost_model, options=options,
        )
        attributes = {
            name: query.attributes_of(name)[0] for name in query.relations
        }
        left_name = condition.left.relation
        right_name = condition.right.relation
        job = JobConf(
            name="two-way",
            inputs=[
                InputSpec(
                    input_path(left_name),
                    OperatorMapper(
                        left_name,
                        condition.left.attribute,
                        parts,
                        condition.predicate.left_operator,
                    ),
                ),
                InputSpec(
                    input_path(right_name),
                    OperatorMapper(
                        right_name,
                        condition.right.attribute,
                        parts,
                        condition.predicate.right_operator,
                    ),
                ),
            ],
            reducer=JoinReducer(query, attributes, parts),
            output="twoway/output",
            num_reduce_tasks=num_partitions,
            partitioner=RoundRobinKeyPartitioner(),
        )
        pipeline.run(job)
        tuples = list(file_system.read_dir("twoway/output"))
        return self._finish(
            query, pipeline, cost_model, tuples,
            shape={"partition_intervals": len(parts), "cycles": 1},
        )

    def predict(self, query, profile, conf=None):
        from repro.core.predict import exact_two_way, operator_fanout
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            PredictConfig,
        )

        conf = conf or PredictConfig()
        if len(query.conditions) != 1 or len(query.relations) != 2:
            raise PlanningError(
                "TwoWayJoin handles exactly one condition over two relations"
            )
        if conf.exact:
            return exact_two_way(self, query, conf)
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
