"""Pruned-All-Seq-Matrix — PASM (Section 8.2).

All-Seq-Matrix plus a pruning cycle: an interval that does not appear in
the output of its component's colocation sub-query cannot appear in any
output tuple of the full query, so it need not be shipped to the grid at
all.  Three MapReduce cycles:

1. the RCCIS flagging cycle (shared with All-Seq-Matrix);
2. a *marking* cycle that computes each multi-relation component's
   colocation join and records which rows participate;
3. the grid routing + join cycle, restricted to the marked rows.

When pruning removes little, the extra cycle makes PASM slightly slower
than All-Seq-Matrix — the trade-off Table 3 quantifies.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.errors import PlanningError, UnsatisfiableQueryError
from repro.core.algorithms.base import JoinAlgorithm, Plan, PlanContext
from repro.core.algorithms.gen_matrix import (
    FlagKey,
    GridSpec,
    flag_cycle,
    grid_join_job,
    multi_term_components,
)
from repro.core.algorithms.routing import FlagRouter, RoutedMapper, RowView
from repro.core.graph import JoinGraph
from repro.core.local import anchored_join, row_columns
from repro.core.query import IntervalJoinQuery, Term
from repro.core.schema import Row
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import ReduceContext, Reducer

__all__ = ["PASM"]


def _flagged(flags: FrozenSet[FlagKey], term: Term, record: Row) -> bool:
    """Whether the flag cycle marked ``term``'s interval of ``record``."""
    return (term.relation, record.rid, term.attribute) in flags


class _MarkingReducer(Reducer):
    """Marking-cycle reduce: join one component's colocation sub-query at
    one partition; emit the participating ``(relation, rid)`` pairs."""

    def __init__(
        self,
        subqueries: Mapping[int, IntervalJoinQuery],
        attributes: Mapping[str, str],
        partitioning: Partitioning,
    ) -> None:
        self.subqueries = dict(subqueries)
        self.attributes = dict(attributes)
        self.partitioning = partitioning

    def reduce(
        self,
        key: Hashable,
        values: List[Tuple[str, Row]],
        context: ReduceContext,
    ) -> None:
        component_index, partition = key  # type: ignore[misc]
        subquery = self.subqueries[component_index]
        rows_by_relation: Dict[str, List[Row]] = defaultdict(list)
        for relation, row in values:
            rows_by_relation[relation].append(row)
        columns, rows = row_columns(subquery, rows_by_relation)
        # Exactly-once decomposition by the last local member, as in the
        # RCCIS JoinReducer.
        anchors = [
            Term(name, self.attributes[name]) for name in subquery.relations
        ]
        count = functools.partial(
            context.counters.increment, "work", "comparisons"
        )
        participating: Dict[str, List[np.ndarray]] = defaultdict(list)
        for binding in anchored_join(
            subquery, count, columns, anchors, self.partitioning, partition
        ):
            for name, members in binding.items():
                participating[name].append(np.unique(members))
        for name in subquery.relations:
            if participating[name]:
                marked = np.unique(np.concatenate(participating[name]))
                context.emit_many((name, row.rid) for row in rows[name][marked])


class PASM(JoinAlgorithm):
    """Pruned-All-Seq-Matrix (three cycles)."""

    name = "pasm"

    def __init__(self, grid_parts: Optional[int] = None) -> None:
        self.grid_parts = grid_parts

    def _check_query(self, query: IntervalJoinQuery) -> None:
        if not query.is_single_attribute:
            raise PlanningError(
                "PASM handles single-attribute queries; use Gen-Matrix "
                "with pruning disabled for multi-attribute ones"
            )

    def plan(self, ctx: PlanContext) -> Plan:
        query = ctx.query
        self._check_query(query)
        graph = JoinGraph(query)
        parts = ctx.partition(self.grid_parts or ctx.num_partitions)
        grid = GridSpec(graph, parts)
        multi_components = multi_term_components(graph)

        # ----- cycle 1: flagging -----
        flags = flag_cycle(ctx, "pasm", grid)

        # ----- cycle 2: marking (component colocation joins) -----
        keep: Dict[str, Set[int]] = {}
        if multi_components:
            subqueries = {
                comp.index: IntervalJoinQuery(list(comp.conditions))
                for comp in multi_components
            }
            ctx.submit(
                JobConf(
                    name="pasm-mark",
                    inputs=[
                        ctx.base_input(
                            term.relation,
                            # RCCIS cycle-2 routing per component.
                            # Its pairs are pruning overhead, not the
                            # join's replication: uncounted.
                            RoutedMapper(
                                RowView(term.relation, term.attribute),
                                FlagRouter(
                                    parts,
                                    functools.partial(_flagged, flags, term),
                                    prefix=comp.index,
                                    count_pairs=False,
                                ),
                            ),
                        )
                        for comp in multi_components
                        for term in sorted(comp.terms)
                    ],
                    reducer=_MarkingReducer(
                        subqueries, ctx.attributes, parts
                    ),
                    output="pasm/marks",
                    num_reduce_tasks=max(
                        1, len(parts) * len(multi_components)
                    ),
                    partitioner=RoundRobinKeyPartitioner(),
                )
            )
            # Relations in multi-relation components but absent from the
            # marks are fully pruned (empty keep set, not "unpruned").
            for comp in multi_components:
                for term in comp.terms:
                    keep[term.relation] = set()
            for relation, rid in ctx.fs.read_dir("pasm/marks"):
                keep[relation].add(rid)

        # ----- cycle 3: pruned grid join -----
        ctx.submit(grid_join_job("pasm", query, grid, flags, keep))
        return Plan(
            "pasm/output", shape={**grid.shape(), "cycles": 3}, grid=grid
        )

    def predict(self, query, profile, conf=None):
        from repro.core.predict import (
            analytic_grid,
            empty_prediction,
            exact_prediction,
        )
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
            PredictConfig,
            crossing_fraction,
            replicate_fanout,
            split_factor,
        )

        conf = conf or PredictConfig()
        self._check_query(query)
        if conf.exact:
            return exact_prediction(self, query, conf)
        try:
            graph = JoinGraph(query)
        except UnsatisfiableQueryError:
            return empty_prediction(
                self.name, conf, "join graph unsatisfiable; no jobs run"
            )
        o = self.grid_parts or conf.num_partitions
        grid = analytic_grid(graph, [o] * len(graph.components))
        cells = max(1, len(grid.cells))
        multi = multi_term_components(graph)
        cycles = []
        flag_mark_load = 0.0
        if multi:
            crossing = crossing_fraction(profile, o)
            multi_reads = 0.0
            for comp in multi:
                for term in comp.terms:
                    multi_reads += profile.rows_per_relation.get(
                        term.relation, 0
                    )
            out_flag = multi_reads * split_factor(profile, o)
            out_mark = multi_reads * (
                (1.0 - crossing) + crossing * replicate_fanout(o)
            )
            reduce_tasks = max(1, o * len(multi))
            cycles.append(
                CyclePrediction(
                    name="pasm-flag",
                    records_read=multi_reads,
                    map_output_records=out_flag,
                    shuffled_records=out_flag,
                    reduce_tasks=reduce_tasks,
                    max_reducer_load=out_flag / reduce_tasks,
                )
            )
            cycles.append(
                CyclePrediction(
                    name="pasm-mark",
                    records_read=multi_reads,
                    map_output_records=out_mark,
                    shuffled_records=out_mark,
                    reduce_tasks=reduce_tasks,
                    max_reducer_load=out_mark / reduce_tasks,
                )
            )
            # Flag + mark cycles share the (component, partition) key
            # space, so their loads collide and sum.
            flag_mark_load = (out_flag + out_mark) / reduce_tasks
        reads = 0.0
        out = 0.0
        terms_by_relation: Dict[str, List[Term]] = defaultdict(list)
        for term in query.terms:
            terms_by_relation[term.relation].append(term)
        for name in query.relations:
            n = profile.rows_per_relation.get(name, 0)
            reads += n
            fraction = 1.0
            for term in terms_by_relation[name]:
                comp = graph.component_of(term)
                if len(comp.terms) > 1:
                    crossing = crossing_fraction(profile, o)
                    fraction *= (1.0 - crossing) / o + crossing * (
                        o + 1
                    ) / (2.0 * o)
                else:
                    fraction *= 1.0 / o
            out += n * len(grid.cells) * fraction
        join_load = out / cells
        cycles.append(
            CyclePrediction(
                name="pasm-join",
                records_read=reads,
                map_output_records=out,
                shuffled_records=out,
                reduce_tasks=cells,
                max_reducer_load=join_load,
            )
        )
        return PlanPrediction(
            algorithm=self.name,
            cost_model=conf.cost_model,
            cycles=tuple(cycles),
            max_reducer_load=max(flag_mark_load, join_load),
            consistent_reducers=len(grid.cells),
            total_reducers=grid.total_cells,
            notes=(
                "marking-cycle pruning not modelled: the join cycle is "
                "an upper bound (assumes every row survives)",
            ),
        )
