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

Flag distribution
-----------------
The flagging cycle emits only the flagged ``(relation, rid, attribute)``
triples; the driver ships that small table to the routing mappers the way
a Hadoop job would use the DistributedCache.  (RCCIS proper instead passes
whole flagged rows through its first cycle's output, exactly as the paper
describes; both designs are implemented so the test suite cross-checks
them.)
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from typing import (
    Dict,
    FrozenSet,
    Hashable,
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
from repro.core.algorithms.base import (
    JoinAlgorithm,
    Plan,
    PlanContext,
    input_path,
)
from repro.columnar.batch import ColumnValues, reduce_columns
from repro.core.algorithms.crossing import count_flagged, flag_columns
from repro.core.algorithms.routing import OperatorRouter, RoutedMapper, RowView
from repro.core.graph import Component, JoinGraph
from repro.core.local import (
    LocalJoiner,
    anchored_join,
    attribute_columns,
    row_columns,
    take_tuples,
)
from repro.core.query import IntervalJoinQuery, QueryClass, Term
from repro.core.schema import Row
from repro.intervals.allen import MapOperator
from repro.intervals.composition import path_consistency
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import SortedColumns
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.shuffle import RoundRobinKeyPartitioner
from repro.mapreduce.task import MapContext, Mapper, ReduceContext, Reducer

__all__ = ["GenMatrix", "AllSeqMatrix", "AllMatrix", "GridSpec"]

Cell = Tuple[int, ...]
FlagKey = Tuple[str, int, str]  # (relation, rid, attribute)


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
        self._projections: Dict[Tuple[int, ...], Dict[Tuple[int, ...], List[Cell]]] = {}

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

    @property
    def partitioning(self) -> Partitioning:
        """The shared partitioning of a uniform grid (the common case)."""
        first = self.partitionings[0]
        if any(p is not first and p != first for p in self.partitionings):
            raise PlanningError(
                "grid has per-dimension partitionings; use partitioning_of"
            )
        return first

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

    # ------------------------------------------------------------------
    def cells_matching(
        self, constraints: Mapping[int, FrozenSet[int]]
    ) -> List[Cell]:
        """Consistent cells whose coordinate on each constrained dimension
        lies in the allowed set (grouped-lookup, precomputed per dimension
        subset)."""
        dims = tuple(sorted(constraints))
        if not dims:
            return self.cells
        index = self._projections.get(dims)
        if index is None:
            index = defaultdict(list)
            for cell in self.cells:
                index[tuple(cell[d] for d in dims)].append(cell)
            self._projections[dims] = index
        out: List[Cell] = []
        for values in itertools.product(
            *(sorted(constraints[d]) for d in dims)
        ):
            out.extend(index.get(values, ()))
        return out


# ----------------------------------------------------------------------
# Flagging cycle (per multi-term component)
# ----------------------------------------------------------------------


class _ComponentFlaggingReducer(Reducer):
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

    def _decide(self, key, columns, counters):
        """Per term received, the ``(local, flagged)`` row masks."""
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
        return decisions

    def reduce(
        self,
        key: Hashable,
        values: List[Tuple[str, Row]],
        context: ReduceContext,
    ) -> None:
        if isinstance(values, ColumnValues):
            reduce_columns(self, key, values, context)
            return
        rows_by_term: Dict[str, List[Row]] = defaultdict(list)
        for term_name, row in values:
            rows_by_term[term_name].append(row)
        columns = {
            name: attribute_columns(rows, self.terms[name].attribute)
            for name, rows in rows_by_term.items()
        }
        decisions = self._decide(key, columns, context.counters)
        for name, (_, flagged) in decisions.items():
            term, rows = self.terms[name], rows_by_term[name]
            for index in np.flatnonzero(flagged).tolist():
                context.emit((term.relation, rows[index].rid, term.attribute))

    # -- columnar protocol (see repro.mapreduce.task) -------------------
    def columnar_ready(self) -> bool:
        return True

    def columnar_outputs(self, key, values: ColumnValues, counters):
        groups = values.tag_groups()
        columns = {
            name: SortedColumns(values.starts[rows], values.ends[rows])
            for name, rows in groups
        }
        decisions = self._decide(key, columns, counters)
        # One ``gid, term`` row per flagged interval.
        names = list(self.terms)
        outs = [np.empty((0, 2), dtype=np.int64)]
        for name, rows in groups:
            gids = values.gids[rows][decisions[name][1]]
            code = np.full(len(gids), names.index(name))
            outs.append(np.stack([gids, code], axis=1))
        return np.concatenate(outs)

    def materialize_outputs(self, outs, store):
        gids, codes = np.asarray(outs, dtype=np.int64).reshape(-1, 2).T
        terms = list(self.terms.values())
        return [
            (terms[code].relation, row.rid, terms[code].attribute)
            for row, code in zip(store.take(gids), codes.tolist())
        ]


# ----------------------------------------------------------------------
# Routing + join cycle
# ----------------------------------------------------------------------


class _GridRouteMapper(Mapper):
    """Route one relation's rows to the consistent cells satisfying all
    per-attribute constraints (conditions E1 + E2 of Sections 8.1/9.1).

    The one routing that is none of the three routers of
    :mod:`repro.core.algorithms.routing`: a row carries one constraint
    per term — pinned, or widened to the upper tail when flagged — and
    its targets are the cells in the *intersection* over all of its
    dimensions, which no single routing interval describes.  Records
    plane only.
    """

    def __init__(
        self,
        relation: str,
        terms: Sequence[Term],
        term_components: Mapping[str, int],
        grid: GridSpec,
        flags: FrozenSet[FlagKey],
        keep: Optional[FrozenSet[int]] = None,
    ) -> None:
        self.relation = relation
        self.terms = list(terms)
        self.term_components = dict(term_components)
        self.grid = grid
        self.flags = flags
        #: rids surviving PASM's marking cycle; None = relation not pruned.
        self.keep = keep

    def map(self, record: Row, context: MapContext) -> None:
        if self.keep is not None and record.rid not in self.keep:
            context.counters.increment("join", "pruned_rows")
            return
        constraints: Dict[int, FrozenSet[int]] = {}
        replicated = False
        for term in self.terms:
            dim = self.term_components[str(term)]
            parts = self.grid.partitioning_of(dim)
            interval = record.interval(term.attribute)
            q = parts.project(interval)
            if (self.relation, record.rid, term.attribute) in self.flags:
                allowed = frozenset(range(q, len(parts)))
                replicated = True
            else:
                allowed = frozenset((q,))
            if dim in constraints:
                constraints[dim] = constraints[dim] & allowed
            else:
                constraints[dim] = allowed
        if any(not allowed for allowed in constraints.values()):
            return  # contradictory constraints: the row joins nothing
        targets = self.grid.cells_matching(constraints)
        if replicated:
            context.counters.increment("join", "replicated_pairs", len(targets))
        for cell in targets:
            context.emit(cell, (self.relation, record))


class _GridJoinReducer(Reducer):
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
        # component index -> list of terms whose intervals it governs
        self.component_terms: Dict[int, List[Term]] = defaultdict(list)
        for component in grid.graph.components:
            self.component_terms[component.index] = sorted(component.terms)
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

    def reduce(
        self,
        key: Hashable,
        values: List[Tuple[str, Row]],
        context: ReduceContext,
    ) -> None:
        cell: Cell = tuple(key)  # type: ignore[arg-type]
        rows_by_relation: Dict[str, List[Row]] = defaultdict(list)
        for relation, row in values:
            rows_by_relation[relation].append(row)
        columns, rows = row_columns(self.query, rows_by_relation)
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
        count = functools.partial(
            context.counters.increment, "work", "comparisons"
        )

        def owns(binding: Mapping[str, np.ndarray]) -> np.ndarray:
            keep = True
            for dim, terms in self.component_terms.items():
                rightmost = np.maximum.reduce(
                    [coordinate[t][binding[t.relation]] for t in terms]
                )
                keep = keep & (rightmost == cell[dim])
            return keep

        if self._anchor_component is None:
            bindings = LocalJoiner(self.query, count).join_columns(
                columns, accept=owns
            )
        else:
            # Anchor on the component's terms in order (local = the
            # interval starts at the cell's coordinate on that
            # dimension); the other dimensions' ownership checks stay
            # in ``owns``.
            anchor_dim = self._anchor_component
            bindings = anchored_join(
                self.query, count, columns, self.component_terms[anchor_dim],
                self.grid.partitioning_of(anchor_dim), cell[anchor_dim],
                accept=owns,
            )
        for binding in bindings:
            context.emit_many(take_tuples(rows, binding))


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def multi_term_components(graph: JoinGraph) -> List[Component]:
    """The components embedding a colocation sub-join (> 1 term)."""
    return [comp for comp in graph.components if len(comp.terms) > 1]


def flag_cycle(ctx: PlanContext, name: str, grid: GridSpec) -> FrozenSet[FlagKey]:
    """The flagging cycle shared by the grid plans: one RCCIS flag pass
    per multi-term component.  Returns the flagged triples (no job at
    all when every component is a single term)."""
    multi = multi_term_components(grid.graph)
    if not multi:
        return frozenset()
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
                        RowView(str(term), term.attribute),
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
    return frozenset(ctx.fs.read_dir(f"{name}/flags"))


def grid_join_job(
    name: str,
    query: IntervalJoinQuery,
    grid: GridSpec,
    flags: FrozenSet[FlagKey],
    keep: Optional[Mapping[str, Set[int]]] = None,
) -> JobConf:
    """The grid routing + join cycle shared by the grid plans; ``keep``
    maps each pruned relation to its surviving rids (PASM)."""
    term_components = {
        str(term): grid.graph.component_of(term).index for term in query.terms
    }
    terms_by_relation: Dict[str, List[Term]] = defaultdict(list)
    for term in query.terms:
        terms_by_relation[term.relation].append(term)
    keep = keep or {}
    return JobConf(
        name=f"{name}-join",
        inputs=[
            InputSpec(
                input_path(relation),
                _GridRouteMapper(
                    relation,
                    terms_by_relation[relation],
                    term_components,
                    grid,
                    flags,
                    keep=(
                        frozenset(keep[relation]) if relation in keep else None
                    ),
                ),
            )
            for relation in query.relations
        ],
        reducer=_GridJoinReducer(query, grid),
        output=f"{name}/output",
        num_reduce_tasks=max(1, len(grid.cells)),
        partitioner=RoundRobinKeyPartitioner(),
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
        self._check_query(query)
        graph = JoinGraph(query)
        per_dim_parts = self._per_dim_parts(graph, ctx.num_partitions)
        built = {o: ctx.partition(o) for o in set(per_dim_parts)}
        grid = GridSpec(graph, [built[o] for o in per_dim_parts])
        flags = flag_cycle(ctx, self.name, grid)
        ctx.submit(grid_join_job(self.name, query, grid, flags))
        return Plan(f"{self.name}/output", shape=grid.shape(), grid=grid)

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
        per_dim = self._per_dim_parts(graph, conf.num_partitions)
        grid = analytic_grid(graph, per_dim)
        cells = max(1, len(grid.cells))
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
        reads = 0.0
        out = 0.0
        terms_by_relation: Dict[str, List[Term]] = defaultdict(list)
        for term in query.terms:
            terms_by_relation[term.relation].append(term)
        for name in query.relations:
            n = profile.rows_per_relation.get(name, 0)
            reads += n
            # Fraction of the consistent cells one row reaches: on each
            # of its term dimensions the coordinate is pinned (1/o), or —
            # for replicated rows of multi-term components — widened to
            # the upper tail range(q, o), (o+1)/(2o) on average.
            fraction = 1.0
            for term in terms_by_relation[name]:
                comp = graph.component_of(term)
                o = per_dim[comp.index]
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
                name=f"{self.name}-join",
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
            max_reducer_load=max(flag_load, join_load),
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
