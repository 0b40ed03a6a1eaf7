"""The grid engine: Gen-Matrix, All-Seq-Matrix and All-Matrix.

One engine implements the paper's three grid algorithms, which share their
structure and differ only in what a *dimension* is:

* **All-Matrix** (Section 7.1): pure sequence queries — every relation is
  its own colocation component, so the grid has one dimension per relation
  and the whole join runs in a single MapReduce cycle.
* **All-Seq-Matrix** (Section 8.1): hybrid single-attribute queries — one
  dimension per colocation component; a preliminary RCCIS flagging cycle
  decides which intervals each embedded colocation sub-join must
  replicate.
* **Gen-Matrix** (Section 9.1): general queries — vertices are
  ``(relation, attribute)`` pairs; a relation's tuple is routed under the
  conjunction of the per-attribute constraints.

Consistent reducers
-------------------
A grid cell is *consistent* when ``i_j <= i_k`` for every enforced
less-than order between components ``C_j < C_k``.  The paper prunes
inconsistent cells unconditionally; that pruning is only sound when every
member of the earlier component provably starts no later than the sequence
partner's start (see DESIGN.md — the paper's own evaluation queries all
satisfy this, but adversarial hybrid queries do not).  We verify the
soundness condition per order pair with Allen path consistency and fall
back to keeping the cells whenever it cannot be proven, preserving
correctness at the cost of pruning less.

Flags and routing
-----------------
The flagging cycle emits only the flagged ``(relation, rid, attribute)``
triples, their rids read off the relations' rid columns; the driver
ships that small table to the join cycle's routers the way a Hadoop job
would use the DistributedCache, as one boolean column over each
relation's rows (:class:`~repro.core.algorithms.routing.RowMarks`).  (RCCIS proper
instead passes whole flagged rows through its first cycle's output,
exactly as the paper describes; both designs are implemented so the test
suite cross-checks them.)  Each relation's rows go through one
:class:`~repro.core.algorithms.routing.CellRouter` — pinned at their
coordinate, the upper tail where flagged, intersected over a
multi-attribute relation's terms — and every cycle runs on the columnar
plane.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import PlanningError, UnsatisfiableQueryError
from repro.core.algorithms.base import JoinAlgorithm, Plan, PlanContext
from repro.core.algorithms.crossing import count_flagged, flag_columns
from repro.core.algorithms.routing import (
    CellRouter,
    OperatorRouter,
    RoutedMapper,
    RowMarks,
    RowView,
)
from repro.core.graph import Component, JoinGraph
from repro.core.local import (
    LocalJoiner,
    TupleReducer,
    anchored_join,
    term_columns,
)
from repro.core.query import IntervalJoinQuery, QueryClass, Term
from repro.intervals.allen import MapOperator
from repro.intervals.composition import path_consistency
from repro.intervals.partitioning import Partitioning
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import KernelReducer

__all__ = ["GenMatrix", "AllSeqMatrix", "AllMatrix", "GridSpec"]

Cell = Tuple[int, ...]


def default_grid_parts(num_partitions: int, dimensions: int) -> int:
    """Per-dimension partition count giving roughly ``num_partitions``
    cells in total."""
    if dimensions <= 0:
        return max(2, num_partitions)
    return max(2, math.ceil(num_partitions ** (1.0 / dimensions)))


class GridSpec:
    """The reducer grid: components, justified orders, consistent cells.

    Dimensions may carry *different* granularities (Afrati-style shares:
    give heavy components more partitions), in which case consistency
    between two coordinates compares partition boundaries rather than
    indices: a cell survives a justified order ``C_j <= C_k`` iff some
    start point in dimension j's partition can precede some start point
    in dimension k's — i.e. ``min_start_j < max_start_k`` — which reduces
    to ``i_j <= i_k`` when the granularities coincide.
    """

    def __init__(
        self,
        graph: JoinGraph,
        partitionings: Union[Partitioning, Sequence[Partitioning]],
    ) -> None:
        self.graph = graph
        self.dimensions = len(graph.components)
        if isinstance(partitionings, Partitioning):
            per_dim: List[Partitioning] = [partitionings] * self.dimensions
        else:
            per_dim = list(partitionings)
            if len(per_dim) != self.dimensions:
                raise PlanningError(
                    "grid needs one partitioning per dimension "
                    f"({self.dimensions}), got {len(per_dim)}"
                )
        self.partitionings: Tuple[Partitioning, ...] = tuple(per_dim)
        self.justified_orders = self._justify_orders()
        self.cells: List[Cell] = [
            cell
            for cell in itertools.product(
                *(range(len(p)) for p in self.partitionings)
            )
            if all(
                self._order_possible(j, cell[j], k, cell[k])
                for j, k in self.justified_orders
            )
        ]
        self.total_cells = 1
        for p in self.partitionings:
            self.total_cells *= len(p)

    # ------------------------------------------------------------------
    def shape(self) -> Dict[str, int]:
        """The grid's entries of a plan's ``shape`` metadata."""
        return {
            "grid_dimensions": self.dimensions,
            "consistent_cells": len(self.cells),
            "total_cells": self.total_cells,
        }

    def partitioning_of(self, dim: int) -> Partitioning:
        """The partitioning governing one grid dimension."""
        return self.partitionings[dim]

    def _order_possible(self, dim_j: int, i_j: int, dim_k: int, i_k: int) -> bool:
        """Whether a start in partition ``i_j`` of dim ``j`` can be <= a
        start in partition ``i_k`` of dim ``k``.  Edge partitions absorb
        clamped out-of-range starts, so the first partition's lower bound
        and the last partition's upper bound are unbounded."""
        pj = self.partitionings[dim_j]
        pk = self.partitionings[dim_k]
        min_start_j = float("-inf") if i_j == 0 else pj.boundaries[i_j]
        max_start_k = (
            float("inf")
            if i_k == len(pk) - 1
            else pk.boundaries[i_k + 1]
        )
        return min_start_j < max_start_k

    # ------------------------------------------------------------------
    def _justify_orders(self) -> FrozenSet[Tuple[int, int]]:
        """The component order pairs for which inconsistent-cell pruning
        is provably sound (see module docstring)."""
        graph = self.graph
        if not graph.component_orders:
            return frozenset()
        try:
            tightened = path_consistency(graph.constraint_network())
        except UnsatisfiableQueryError:
            # Provably empty query; the caller handles emptiness — every
            # pruning is vacuously sound.
            return graph.component_orders
        justified: Set[Tuple[int, int]] = set()
        for cond in graph.sequence_conditions:
            if cond.predicate.enforces_left_first():
                early_term, late_term = cond.left, cond.right
            else:
                early_term, late_term = cond.right, cond.left
            cj = graph.component_of(early_term).index
            ck = graph.component_of(late_term).index
            if cj == ck:
                continue
            early_component = graph.components[cj]
            # Sound iff no member of the earlier component can start after
            # the early endpoint's interval ends, i.e. Allen "after" is
            # excluded between every member and the early endpoint.
            sound = all(
                "after" not in tightened.constraint(str(term), str(early_term))
                for term in early_component.terms
            )
            if sound:
                justified.add((cj, ck))
        return frozenset(justified)


# ----------------------------------------------------------------------
# Flagging cycle (per multi-term component)
# ----------------------------------------------------------------------


class _ComponentFlaggingReducer(KernelReducer):
    """Run the crossing-set CSP for one (component, partition); emit the
    flagged ``(relation, rid, attribute)`` triples."""

    def __init__(
        self,
        components: Sequence[Component],
        partitionings: Mapping[int, Partitioning],
    ) -> None:
        self.components = {comp.index: comp for comp in components}
        self.partitionings = dict(partitionings)
        #: the shuffle values are tagged by term name.
        self.terms = {
            str(term): term for comp in components for term in comp.terms
        }

    def kernel(self, key, group, counters) -> np.ndarray:
        groups = group.tag_groups()
        columns = {
            name: term_columns(group, rows, self.terms[name]) for name, rows in groups
        }
        component_index, partition = key
        component = self.components[component_index]
        partitioning = self.partitionings[component_index]
        terms = sorted(component.terms)
        if len({term.relation for term in terms}) < len(terms):
            # Two attributes of one relation inside one component: the CSP
            # variables would have to co-bind.  Fall back to flagging every
            # interval starting here (All-Replicate semantics within the
            # dimension) — always correct, never optimal.
            decisions = {}
            for name, column in columns.items():
                local = partitioning.locate_array(column.starts) == partition
                decisions[name] = (local, local)
        else:
            decisions = flag_columns(
                [str(term) for term in terms],
                [
                    (str(cond.left), cond.predicate, str(cond.right))
                    for cond in component.conditions
                ],
                partitioning,
                partition,
                columns,
            )
        count_flagged(decisions, counters)
        # One ``gid, term`` row per flagged interval.
        names = list(self.terms)
        outs = [np.empty((0, 2), dtype=np.int64)]
        for name, rows in groups:
            gids = group.gids[rows][decisions[name][1]]
            code = np.full(len(gids), names.index(name))
            outs.append(np.stack([gids, code], axis=1))
        return np.concatenate(outs)

    def format(self, block, store):
        gids, codes = block.reshape(-1, 2).T
        terms = list(self.terms.values())
        return [
            (terms[code].relation, rid, terms[code].attribute)
            for rid, code in zip(store.rids(gids), codes)
        ]


# ----------------------------------------------------------------------
# Routing + join cycle
# ----------------------------------------------------------------------


class _GridJoinReducer(TupleReducer):
    """Join one cell's rows; emit tuples owned by this cell (per
    component, the right-most member interval starts at the cell's
    coordinate).

    When a component replicates intervals (an embedded RCCIS sub-join),
    enumeration is *anchored* on that component
    (:func:`~repro.core.local.anchored_join` over its terms), which
    keeps the reducer's work proportional to the tuples it owns instead
    of re-enumerating combinations of replicated rows owned by earlier
    cells.
    """

    def __init__(self, query: IntervalJoinQuery, grid: GridSpec) -> None:
        self.query = query
        self.grid = grid
        # component index -> the terms whose intervals it governs
        self.component_terms: Dict[int, List[Term]] = {
            component.index: sorted(component.terms)
            for component in grid.graph.components
        }
        # Anchor on the largest component (the one whose replication
        # would otherwise cause re-enumeration); None for all-singleton
        # grids (pure routing delivers each tuple to exactly one cell).
        # Components holding two attributes of one relation are excluded
        # — their terms co-bind one row, which would break the
        # exactly-once run decomposition; they fall back to the plain
        # ownership filter.
        multi = [
            comp
            for comp in grid.graph.components
            if len(comp.terms) > 1
            and len({term.relation for term in comp.terms})
            == len(comp.terms)
        ]
        self._anchor_component: Optional[int] = (
            max(multi, key=lambda c: len(c.terms)).index if multi else None
        )

    def _join(self, key, columns, counters):
        cell: Cell = tuple(key)  # type: ignore[arg-type]
        # The grid coordinate of every row's start, per term: locate is
        # monotone, so a component's right-most start lies in the
        # largest of its members' coordinates.
        coordinate = {
            term: self.grid.partitioning_of(dim).locate_array(
                columns[term].starts
            )
            for dim, terms in self.component_terms.items()
            for term in terms
        }
        count = functools.partial(counters.increment, "work", "comparisons")

        def owns(binding: Mapping[str, np.ndarray]) -> np.ndarray:
            keep = True
            for dim, terms in self.component_terms.items():
                rightmost = np.maximum.reduce(
                    [coordinate[t][binding[t.relation]] for t in terms]
                )
                keep = keep & (rightmost == cell[dim])
            return keep

        if self._anchor_component is None:
            return LocalJoiner(self.query, count).join_columns(
                columns, accept=owns
            )
        # Anchor on the component's terms in order (local = the interval
        # starts at the cell's coordinate on that dimension); the other
        # dimensions' ownership checks stay in ``owns``.
        anchor_dim = self._anchor_component
        return anchored_join(
            self.query, count, columns, self.component_terms[anchor_dim],
            self.grid.partitioning_of(anchor_dim), cell[anchor_dim],
            accept=owns,
        )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def multi_term_components(graph: JoinGraph) -> List[Component]:
    """The components embedding a colocation sub-join (> 1 term)."""
    return [comp for comp in graph.components if len(comp.terms) > 1]


def flag_cycle(ctx: PlanContext, name: str, grid: GridSpec) -> Dict[Term, RowMarks]:
    """The flagging cycle shared by the grid plans: one RCCIS flag pass
    per multi-term component.  Returns each multi-term component term's
    flags as marks of its relation's rows, read off the committed
    ``(relation, rid, attribute)`` triples (no job at all when every
    component is a single term)."""
    multi = multi_term_components(grid.graph)
    if not multi:
        return {}
    partitionings = {
        comp.index: grid.partitioning_of(comp.index) for comp in multi
    }
    ctx.submit(
        JobConf(
            name=f"{name}-flag",
            inputs=[
                ctx.base_input(
                    term.relation,
                    # Split, keyed by (component, partition).
                    RoutedMapper(
                        RowView(str(term), term.attribute, relation=term.relation),
                        OperatorRouter(
                            partitionings[comp.index],
                            MapOperator.SPLIT,
                            prefix=comp.index,
                        ),
                    ),
                )
                for comp in multi
                for term in sorted(comp.terms)
            ],
            reducer=_ComponentFlaggingReducer(multi, partitionings),
            output=f"{name}/flags",
            num_reduce_tasks=max(
                1, sum(len(parts) for parts in partitionings.values())
            ),
            partitioner=RoundRobinKeyPartitioner(),
        )
    )
    flagged: Dict[Tuple[str, str], List[int]] = {}
    for relation, rid, attribute in ctx.fs.read_dir(f"{name}/flags"):
        flagged.setdefault((relation, attribute), []).append(rid)
    return {
        term: RowMarks(ctx.data[term.relation], flagged.get((term.relation, term.attribute), ()))
        for comp in multi
        for term in comp.terms
    }


def grid_join_job(
    ctx: PlanContext,
    name: str,
    grid: GridSpec,
    flags: Mapping[Term, RowMarks],
    keep: Optional[Mapping[str, RowMarks]] = None,
) -> JobConf:
    """The grid routing + join cycle shared by the grid plans: each
    relation's rows go to the consistent cells at their coordinates —
    the upper tail where ``flags`` (:func:`flag_cycle`) mark them
    (conditions E1 + E2 of Sections 8.1/9.1).  ``keep`` marks each
    pruned relation's surviving rows (PASM)."""
    query, keep = ctx.query, keep or {}

    def pin(term: Term):
        component = grid.graph.component_of(term)
        dim = component.index
        return dim, grid.partitioning_of(dim), term.attribute, flags.get(term)

    def mapper(relation: str) -> RoutedMapper:
        (dim, parts, attribute, flagged), *also = [
            pin(term) for term in query.terms if term.relation == relation
        ]
        kept = keep.get(relation)
        return RoutedMapper(
            RowView(relation, attribute, also=[term[2] for term in also]),
            CellRouter(parts, dim, grid.cells, flagged, kept, also),
        )

    return JobConf(
        name=f"{name}-join",
        inputs=[
            ctx.base_input(relation, mapper(relation))
            for relation in query.relations
        ],
        reducer=_GridJoinReducer(query, grid),
        output=f"{name}/output",
        num_reduce_tasks=max(1, len(grid.cells)),
        partitioner=RoundRobinKeyPartitioner(),
    )


def join_cycle_prediction(name, query, graph, grid, per_dim, profile):
    """The analytic :class:`~repro.core.tuning.CyclePrediction` of a grid
    join cycle: each row reaches a fraction of the consistent cells — on
    each of its term dimensions the coordinate is pinned (1/o), or, for
    replicated rows of multi-term components, widened to the upper tail
    range(q, o), (o+1)/(2o) on average."""
    from repro.core.tuning import CyclePrediction, crossing_fraction

    reads = out = 0.0
    for relation in query.relations:
        n = profile.rows_per_relation.get(relation, 0)
        reads += n
        fraction = 1.0
        for term in (term for term in query.terms if term.relation == relation):
            comp = graph.component_of(term)
            o = per_dim[comp.index]
            if len(comp.terms) > 1:
                crossing = crossing_fraction(profile, o)
                fraction *= (1.0 - crossing) / o + crossing * (o + 1) / (2.0 * o)
            else:
                fraction *= 1.0 / o
        out += n * len(grid.cells) * fraction
    cells = max(1, len(grid.cells))
    return CyclePrediction(
        name=name,
        records_read=reads,
        map_output_records=out,
        shuffled_records=out,
        reduce_tasks=cells,
        max_reducer_load=out / cells,
    )


class GenMatrix(JoinAlgorithm):
    """The general grid algorithm (Section 9.1).

    ``num_partitions`` is interpreted as the *per-dimension* partition
    count when ``grid_parts`` is not given explicitly.
    """

    name = "gen_matrix"

    #: restrict to a query class (None = any); subclasses override.
    _required_class: Optional[QueryClass] = None

    def __init__(
        self, grid_parts: Optional[Union[int, Sequence[int]]] = None
    ) -> None:
        #: per-dimension granularity: a single ``o`` for a uniform grid,
        #: or one value per colocation component for Afrati-style shares
        #: (heavier components get more partitions; see
        #: :func:`repro.core.tuning.recommend_shares`).
        self.grid_parts = grid_parts

    # ------------------------------------------------------------------
    def _check_query(self, query: IntervalJoinQuery) -> None:
        if (
            self._required_class is not None
            and query.query_class is not self._required_class
        ):
            raise PlanningError(
                f"{type(self).__name__} handles {self._required_class.name} "
                f"queries; got {query.query_class.name}"
            )

    def _per_dim_parts(self, graph: JoinGraph, num_partitions: int) -> List[int]:
        """One granularity per grid dimension."""
        grid_parts = self.grid_parts or num_partitions
        if isinstance(grid_parts, int):
            return [grid_parts] * len(graph.components)
        if len(grid_parts) != len(graph.components):
            raise PlanningError(
                "grid_parts must give one granularity per dimension "
                f"({len(graph.components)}), got {len(grid_parts)}"
            )
        return list(grid_parts)

    def plan(self, ctx: PlanContext) -> Plan:
        query = ctx.query
        graph = JoinGraph(query)
        per_dim_parts = self._per_dim_parts(graph, ctx.num_partitions)
        built = {o: ctx.partition(o) for o in set(per_dim_parts)}
        grid = GridSpec(graph, [built[o] for o in per_dim_parts])
        flags = flag_cycle(ctx, self.name, grid)
        ctx.submit(grid_join_job(ctx, self.name, grid, flags))
        return Plan(f"{self.name}/output", shape=grid.shape(), grid=grid)

    def analytic_prediction(self, query, profile, conf):
        from repro.core.predict import analytic_grid, empty_prediction
        from repro.core.tuning import CyclePrediction, PlanPrediction, split_factor

        try:
            graph = JoinGraph(query)
        except UnsatisfiableQueryError:
            return empty_prediction(
                self.name, conf, "join graph unsatisfiable; no jobs run"
            )
        per_dim = self._per_dim_parts(graph, conf.num_partitions)
        grid = analytic_grid(graph, per_dim)
        multi = multi_term_components(graph)
        cycles = []
        flag_load = 0.0
        if multi:
            reads = 0.0
            out = 0.0
            for comp in multi:
                o = per_dim[comp.index]
                for term in comp.terms:
                    n = profile.rows_per_relation.get(term.relation, 0)
                    reads += n
                    out += n * split_factor(profile, o)
            reduce_tasks = max(1, sum(per_dim[c.index] for c in multi))
            flag_load = out / reduce_tasks
            cycles.append(
                CyclePrediction(
                    name=f"{self.name}-flag",
                    records_read=reads,
                    map_output_records=out,
                    shuffled_records=out,
                    reduce_tasks=reduce_tasks,
                    max_reducer_load=flag_load,
                )
            )
        join = join_cycle_prediction(
            f"{self.name}-join", query, graph, grid, per_dim, profile
        )
        return PlanPrediction(
            algorithm=self.name,
            cost_model=conf.cost_model,
            cycles=(*cycles, join),
            max_reducer_load=max(flag_load, join.max_reducer_load),
            consistent_reducers=len(grid.cells),
            total_reducers=grid.total_cells,
        )


class AllSeqMatrix(GenMatrix):
    """All-Seq-Matrix (Section 8.1): the grid engine restricted to
    single-attribute hybrid queries (its original formulation)."""

    name = "all_seq_matrix"

    def _check_query(self, query: IntervalJoinQuery) -> None:
        if not query.is_single_attribute:
            raise PlanningError(
                "All-Seq-Matrix handles single-attribute queries; use "
                "Gen-Matrix for multi-attribute ones"
            )


class AllMatrix(GenMatrix):
    """All-Matrix (Section 7.1): the grid engine on pure sequence queries
    — one dimension per relation, a single MapReduce cycle."""

    name = "all_matrix"
    _required_class = QueryClass.SEQUENCE
