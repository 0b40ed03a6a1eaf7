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
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import PlanningError, UnsatisfiableQueryError
from repro.core.algorithms.base import JoinAlgorithm, Plan, PlanContext
from repro.core.algorithms.gen_matrix import (
    GridSpec,
    flag_cycle,
    grid_join_job,
    join_cycle_prediction,
    multi_term_components,
)
from repro.core.algorithms.routing import FlagRouter, RoutedMapper, RowMarks, RowView
from repro.core.graph import JoinGraph
from repro.core.local import anchored_join, group_columns
from repro.core.query import IntervalJoinQuery, Term
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import KernelReducer

__all__ = ["PASM"]


class _MarkingReducer(KernelReducer):
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
        #: the relations an output's code names, in a fixed order.
        self.relations = sorted(self.attributes)

    def kernel(self, key, group, counters) -> np.ndarray:
        component_index, partition = key
        subquery = self.subqueries[component_index]
        columns, gids = group_columns(subquery, group)
        # Exactly-once decomposition by the last local member, as in the
        # RCCIS JoinReducer.
        anchors = [Term(name, self.attributes[name]) for name in subquery.relations]
        count = functools.partial(counters.increment, "work", "comparisons")
        participating: Dict[str, List[np.ndarray]] = defaultdict(list)
        for binding in anchored_join(
            subquery, count, columns, anchors, self.partitioning, partition
        ):
            for name, members in binding.items():
                participating[name].append(np.unique(members))
        # One ``gid, relation`` row per row some tuple owned here binds,
        # ascending per relation.
        outs = [np.empty((0, 2), dtype=np.int64)]
        for name in subquery.relations:
            if participating[name]:
                marked = np.unique(np.concatenate(participating[name]))
                code = np.full(len(marked), self.relations.index(name))
                outs.append(np.stack([gids[name][marked], code], axis=1))
        return np.concatenate(outs)

    def format(self, block, store):
        gids, codes = block.reshape(-1, 2).T
        return [
            (self.relations[code], rid)
            for rid, code in zip(store.rids(gids), codes)
        ]


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
        graph = JoinGraph(query)
        parts = ctx.partition(self.grid_parts or ctx.num_partitions)
        grid = GridSpec(graph, parts)
        multi_components = multi_term_components(graph)

        # ----- cycle 1: flagging -----
        flags = flag_cycle(ctx, "pasm", grid)

        # ----- cycle 2: marking (component colocation joins) -----
        keep: Dict[str, RowMarks] = {}
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
                                    flags[term],
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
            kept: Dict[str, List[int]] = {
                term.relation: [] for comp in multi_components for term in comp.terms
            }
            for relation, rid in ctx.fs.read_dir("pasm/marks"):
                kept[relation].append(rid)
            keep = {name: RowMarks(ctx.data[name], rids) for name, rids in kept.items()}

        # ----- cycle 3: pruned grid join -----
        ctx.submit(grid_join_job(ctx, "pasm", grid, flags, keep))
        return Plan(
            "pasm/output", shape={**grid.shape(), "cycles": 3}, grid=grid
        )

    def analytic_prediction(self, query, profile, conf):
        from repro.core.predict import analytic_grid, empty_prediction
        from repro.core.tuning import (
            CyclePrediction,
            PlanPrediction,
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
        o = self.grid_parts or conf.num_partitions
        grid = analytic_grid(graph, [o] * len(graph.components))
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
        join = join_cycle_prediction(
            "pasm-join", query, graph, grid, [o] * len(graph.components), profile
        )
        return PlanPrediction(
            algorithm=self.name,
            cost_model=conf.cost_model,
            cycles=(*cycles, join),
            max_reducer_load=max(flag_mark_load, join.max_reducer_load),
            consistent_reducers=len(grid.cells),
            total_reducers=grid.total_cells,
            notes=(
                "marking-cycle pruning not modelled: the join cycle is "
                "an upper bound (assumes every row survives)",
            ),
        )
