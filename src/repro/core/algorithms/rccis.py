"""RCCIS — Replicate Consistent And Crossing Interval Sets (Section 6.1).

The paper's algorithm for multi-way colocation joins over a single
interval attribute.  Two MapReduce cycles:

1. **Flagging.**  Every relation is *split*, so reducer ``p`` receives all
   intervals intersecting partition-interval ``p``.  The reducer finds the
   intervals that belong to some consistent interval-set crossing ``p``
   (conditions C1 + C2, solved by
   :class:`~repro.core.algorithms.crossing.CrossingSetFinder`) and writes
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

from collections import defaultdict
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.errors import PlanningError
from repro.columnar.batch import ColumnValues, interval_columns, reduce_columns
from repro.core.algorithms.base import (
    JoinAlgorithm,
    Plan,
    PlanContext,
    input_path,
)
from repro.core.local import LocalJoiner
from repro.core.query import IntervalJoinQuery, QueryClass
from repro.core.schema import Row
from repro.core.algorithms.crossing import CrossingSetFinder
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import MapContext, Mapper, ReduceContext, Reducer

__all__ = ["RCCIS", "SplitMapper", "FlaggingReducer", "RouteMapper", "JoinReducer"]


class SplitMapper(Mapper):
    """Cycle 1 map: split one relation's rows over the partitioning."""

    def __init__(
        self, relation: str, attribute: str, partitioning: Partitioning
    ) -> None:
        self.relation = relation
        self.attribute = attribute
        self.partitioning = partitioning

    def map(self, record: Row, context: MapContext) -> None:
        interval = record.interval(self.attribute)
        for index in self.partitioning.split(interval):
            context.emit(index, (self.relation, record))


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

    def reduce(
        self, key: Hashable, values: List[Tuple[str, Row]], context: ReduceContext
    ) -> None:
        partition = int(key)
        rows_by_relation: Dict[str, List[Row]] = defaultdict(list)
        for relation, row in values:
            rows_by_relation[relation].append(row)
        intervals = {
            relation: [
                row.interval(self.attributes[relation]) for row in rows
            ]
            for relation, rows in rows_by_relation.items()
        }
        finder = CrossingSetFinder(
            self.relations,
            [c for c in self.conditions],
            self.partitioning,
            partition,
        )
        masks = finder.replicable(intervals)
        for relation, rows in rows_by_relation.items():
            mask = masks.get(relation)
            for index, row in enumerate(rows):
                interval = intervals[relation][index]
                if self.partitioning.project(interval) != partition:
                    continue  # flagged (or not) by its own start partition
                flagged = bool(mask[index]) if mask is not None else False
                if flagged:
                    context.counters.increment("join", "replicated_intervals")
                context.emit((relation, row, flagged))


class RouteMapper(Mapper):
    """Cycle 2 map: replicate flagged rows, project the rest."""

    columnar_key_kind = "int"

    def __init__(self, attributes: Mapping[str, str], partitioning: Partitioning):
        self.attributes = dict(attributes)
        self.partitioning = partitioning

    def _interval_of(self, record: Tuple[str, Row, bool]):
        relation, row, _flagged = record
        return row.interval(self.attributes[relation])

    def map(
        self, record: Tuple[str, Row, bool], context: MapContext
    ) -> None:
        relation, row, flagged = record
        interval = self._interval_of(record)
        if flagged:
            targets = list(self.partitioning.replicate(interval))
            context.counters.increment(
                "join", "replicated_pairs", len(targets)
            )
            for index in targets:
                context.emit(index, (relation, row))
        else:
            context.emit(self.partitioning.project(interval), (relation, row))

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def encode_intervals(self, records):
        return interval_columns(records, self._interval_of)

    def map_columns(self, starts, ends, records):
        import numpy as np

        from repro.columnar.batch import MapBlock, ranged_targets

        n = len(records)
        flags = np.fromiter(
            (bool(record[2]) for record in records), dtype=bool, count=n
        )
        tags: List[str] = []
        index_of: Dict[str, int] = {}
        tag_of_record = np.empty(n, dtype=np.int16)
        for i, (relation, _row, _flagged) in enumerate(records):
            code = index_of.get(relation)
            if code is None:
                code = index_of[relation] = len(tags)
                tags.append(relation)
            tag_of_record[i] = code
        lo = self.partitioning.locate_array(starts)
        hi = np.where(
            flags, np.int64(len(self.partitioning) - 1), lo
        ).astype(np.int64)
        key_codes, row_idx = ranged_targets(lo, hi)
        counters: Dict[Tuple[str, str], int] = {}
        replicated = int((hi[flags] - lo[flags] + 1).sum()) if n else 0
        if replicated:
            counters[("join", "replicated_pairs")] = replicated
        return MapBlock(
            key_codes, row_idx, tag_of_record[row_idx], tags, counters
        )

    def value_of(self, record: Tuple[str, Row, bool]):
        return (record[0], record[1])


class JoinReducer(Reducer):
    """Cycle 2 reduce: join received rows; emit tuples owned by this
    partition (right-most member starts here).

    Every row a cycle-2 reducer receives starts in this partition or an
    earlier one (projection pins, replication goes rightward), so the
    reducer owns a tuple iff at least one member is *local* (starts
    here).  Enumeration is decomposed by the highest-indexed local
    member: run ``k`` anchors relation ``k`` on its local rows, allows
    any rows for relations before ``k``, and only *non-local* rows for
    relations after ``k``.  Each owned tuple is produced by exactly one
    run (the one anchored at its last local member) and combinations of
    purely replicated rows — owned by earlier partitions — are never
    enumerated, so the reducer's work stays proportional to its own
    output.
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
        self._reduce_pairs(key, values, context.emit, context.counters)

    def _reduce_pairs(self, key, values, emit, counters) -> None:
        """The join body, shared by both data planes: ``values`` is any
        iterable of ``(relation, row)`` pairs where ``row`` answers
        ``interval(attribute)`` (real rows, or columnar proxies)."""
        partition = int(key)
        rows_by_relation: Dict[str, List[Row]] = defaultdict(list)
        for relation, row in values:
            rows_by_relation[relation].append(row)

        def is_local(name: str, row: Row) -> bool:
            return (
                self.partitioning.locate(
                    row.interval(self.attributes[name]).start
                )
                == partition
            )

        local_rows: Dict[str, List[Row]] = {}
        old_rows: Dict[str, List[Row]] = {}
        for name, rows in rows_by_relation.items():
            local_rows[name] = [r for r in rows if is_local(name, r)]
            old_rows[name] = [r for r in rows if not is_local(name, r)]

        def count(n: int) -> None:
            counters.increment("work", "comparisons", n)

        names = list(self.query.relations)
        for k, anchor in enumerate(names):
            if not local_rows.get(anchor):
                continue
            candidates: Dict[str, List[Row]] = {}
            for j, name in enumerate(names):
                if j < k:
                    candidates[name] = rows_by_relation.get(name, [])
                elif j == k:
                    candidates[name] = local_rows[anchor]
                else:
                    candidates[name] = old_rows.get(name, [])
            # Built per call: this reducer instance is shared across
            # concurrently-running tasks under the threads executor, so
            # a cached joiner's count callback would attribute one
            # task's comparisons to another's counters.
            joiner = LocalJoiner(self.query, count, start_with=anchor)
            for tuple_rows in joiner.join(candidates):
                emit(tuple_rows)

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        # Columnar proxies answer ``interval()`` with the routing
        # interval regardless of attribute name, which is only sound
        # when every relation joins on a single attribute.
        return self.query.is_single_attribute

    def columnar_outputs(self, key, values: ColumnValues, counters):
        outputs: List[Tuple] = []
        self._reduce_pairs(
            key, values.tagged_proxies(), outputs.append, counters
        )
        for tuple_rows in outputs:
            yield tuple(proxy.gid for proxy in tuple_rows)

    def materialize_output(self, out, store):
        return tuple(store.value(gid)[1] for gid in out)


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
                    InputSpec(
                        input_path(name),
                        SplitMapper(name, attributes[name], parts),
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
