"""Reducer-local multi-way join evaluation.

Every reducer in every algorithm ultimately has to enumerate the join
tuples among the (relation-tagged) rows it received.  The paper leaves
this local step unspecified; we implement a left-deep pipeline of
vectorised steps over endpoint columns
(:class:`~repro.intervals.sweep.SortedColumns`, one per query term,
sorted once per reduce call):

* relations are bound in an order that keeps each new relation connected
  to the already-bound ones; partial bindings are one row-index column
  per bound relation;
* the candidate rows for the next relation are contiguous windows of its
  sorted endpoints, of the kind the pair kernel's rule
  (:func:`~repro.intervals.sweep.window_kind`) gives the step's access
  condition — every row only when nothing connects the relation's index
  attribute;
* the step's conditions are array masks, evaluated in
  ``query.conditions`` order, each over the survivors of the one before;
* no step expands more than ``sweep.MAX_CANDIDATE_PAIRS`` candidate
  pairs at once (:func:`~repro.intervals.sweep.window_blocks` cuts the
  partial bindings into blocks first).

``work:comparisons`` is charged by rule (the cost model prices it).
Three or more relations: each step charges one per (candidate, condition
evaluated); the candidates are those of the **first** colocation
condition on the relation's index attribute (its first query attribute),
else of the **last** sequence condition on it, else every row; the first
step charges nothing.  Two relations: one per pair *satisfying* the
first condition — which is the access path — then one per further
condition evaluated.  The total is reported once per join.

An optional ``accept`` mask filters complete bindings — algorithms pass
their "this reducer owns the tuple" rules, which make grid output
exactly-once.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Hashable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.columnar.batch import ColumnValues, object_column
from repro.core.query import IntervalJoinQuery, JoinCondition, Term
from repro.core.schema import Row
from repro.errors import MapReduceError
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import (
    ALL_ROWS,
    INTERSECTING,
    SortedColumns,
    window_blocks,
    window_kind,
)
from repro.mapreduce.task import KernelReducer

__all__ = [
    "LocalJoiner",
    "TupleReducer",
    "anchored_join",
    "attribute_columns",
    "binding_order",
    "group_columns",
    "term_columns",
]

#: One :class:`SortedColumns` per query term.
Columns = Mapping[Term, SortedColumns]
#: A block of bindings: per relation, a column of row indices.
Binding = Dict[str, np.ndarray]
Accept = Callable[[Binding], np.ndarray]


def attribute_columns(rows: Sequence[Row], attribute: str) -> SortedColumns:
    """One interval attribute of ``rows`` as endpoint columns, in row
    order (``object`` columns when an endpoint is not float64-exact)."""
    return SortedColumns.of_intervals([row.interval(attribute) for row in rows])


def term_columns(group: ColumnValues, rows: np.ndarray, term: Term) -> SortedColumns:
    """``term``'s endpoint columns over the values ``rows`` of a group,
    which share one tag: their routing interval when the tag's layout
    routes them by ``term``, else the further-term slot it names
    ``term`` in.  A term the values do not carry is refused."""
    if len(rows):
        code = group.tag_codes[rows[0]]
        routing, *further = group.layouts[code]
        if term != routing:
            if term not in further:
                raise MapReduceError(
                    f"term {term} is neither the routing term nor a further "
                    f"term of the values tagged {group.tags[code]!r}"
                )
            slot = further.index(term)
            return SortedColumns(group.terms.starts[rows, slot], group.terms.ends[rows, slot])
    return SortedColumns(group.starts[rows], group.ends[rows])


def group_columns(
    query: IntervalJoinQuery, group: ColumnValues
) -> Tuple[Dict[Term, SortedColumns], Dict[str, np.ndarray]]:
    """A group tagged by relation as the join reads it: every query
    term's endpoint columns and, per relation in output order, the
    values' gids (empty for an absent one)."""
    rows = {name: np.flatnonzero(group.tag_mask(name)) for name in query.relations}
    columns = {
        term: term_columns(group, rows[term.relation], term) for term in query.terms
    }
    return columns, {name: group.gids[at] for name, at in rows.items()}


def binding_order(
    query: IntervalJoinQuery, start_with: Optional[str] = None
) -> List[str]:
    """A connected relation order — each relation after the first shares
    a condition with one bound before it — from ``start_with`` if given."""
    remaining = list(query.relations)
    if start_with is None:
        start_with = remaining[0]
    elif start_with not in remaining:
        raise ValueError(f"unknown start relation {start_with!r}")
    remaining.remove(start_with)
    order = [start_with]
    while remaining:
        bound = set(order)
        for candidate in remaining:
            if any(
                {c.left.relation, c.right.relation} <= bound | {candidate}
                and candidate in (c.left.relation, c.right.relation)
                for c in query.conditions
            ):
                break
        else:  # disconnected (checked at query build; defensive)
            candidate = remaining[0]
        remaining.remove(candidate)
        order.append(candidate)
    return order


class _Step(NamedTuple):
    """Binding one more relation: its candidate windows, then its masks."""

    relation: str
    #: conditions checkable once the relation is bound, in query order.
    conditions: Tuple[JoinCondition, ...]
    #: window kind, the relation's sorted term, the bound term probing it.
    kind: int
    index: Term
    probe: Term


class LocalJoiner:
    """Joins relation-tagged row sets under a query's conditions.

    ``count_comparisons`` is called once per join with the comparisons
    charged (wire it to a MapReduce counter); ``start_with`` is the
    first bound relation — reducers drive enumeration from a small
    anchor candidate set, e.g. the rows starting in their own partition.
    """

    def __init__(
        self,
        query: IntervalJoinQuery,
        count_comparisons: Optional[Callable[[int], None]] = None,
        start_with: Optional[str] = None,
    ) -> None:
        self.query = query
        self._count = count_comparisons or (lambda n: None)
        self._binding_order = binding_order(query, start_with)
        self._two_way = len(query.relations) == 2
        self._steps = self._plan_steps()

    # ------------------------------------------------------------------
    def _index_term(self, relation: str) -> Term:
        return Term(relation, self.query.attributes_of(relation)[0])

    def _plan_steps(self) -> List[_Step]:
        order = self._binding_order
        steps = []
        for k in range(1, len(order)):
            name, bound = order[k], set(order[: k + 1])
            conditions = tuple(
                c
                for c in self.query.conditions
                if {c.left.relation, c.right.relation} <= bound
                and name in (c.left.relation, c.right.relation)
            )
            kind, index, probe = (
                ALL_ROWS, self._index_term(name), self._index_term(order[0])
            )
            for cond in conditions[:1] if self._two_way else conditions:
                mine, other = cond.left, cond.right
                if mine.relation != name:
                    mine, other = other, mine
                if self._two_way:
                    index = mine
                elif mine != index:
                    continue
                kind = window_kind(cond.predicate, mine is cond.left)
                probe = other
                if kind == INTERSECTING:
                    break
            steps.append(_Step(name, conditions, kind, index, probe))
        return steps

    # ------------------------------------------------------------------
    def join(
        self,
        rows_by_relation: Mapping[str, Sequence[Row]],
        accept: Optional[Accept] = None,
    ) -> Iterator[Tuple[Row, ...]]:
        """Enumerate satisfying tuples (in ``query.relations`` order) of
        rows — the form the benchmark's local-join probe calls."""
        columns = {
            term: attribute_columns(
                rows_by_relation.get(term.relation) or (), term.attribute
            )
            for term in self.query.terms
        }
        rows = {
            name: object_column(rows_by_relation.get(name) or ())
            for name in self.query.relations
        }
        for binding in self.join_columns(columns, accept):
            yield from zip(*(rows[name][binding[name]] for name in rows))

    def join_columns(
        self, columns: Columns, accept: Optional[Accept] = None
    ) -> Iterator[Binding]:
        """Enumerate satisfying bindings block by block: each block maps
        every relation to a column of row indices into its (unrestricted)
        columns, row ``i`` of all columns being one tuple.

        ``accept`` maps a block to a boolean mask of the bindings to
        keep (used for reducer-ownership rules).
        """
        if any(
            len(columns[self._index_term(name)]) == 0
            for name in self.query.relations
        ):
            return
        first = self._binding_order[0]
        seed = {first: columns[self._index_term(first)].rows()}
        charged = yield from self._extend(0, seed, columns, accept)
        if charged:
            self._count(charged)

    def _extend(
        self,
        k: int,
        binding: Binding,
        columns: Columns,
        accept: Optional[Accept],
    ) -> Generator[Binding, None, int]:
        """Bind the relations of steps ``k``.. onto a block of partial
        bindings, depth first; returns the comparisons charged."""
        if k == len(self._steps):
            if accept is not None:
                keep = accept(binding)
                binding = {name: rows[keep] for name, rows in binding.items()}
            yield binding
            return 0
        charged = 0
        step = self._steps[k]
        index = columns[step.index]
        probe_column = columns[step.probe]
        probe_rows = binding[step.probe.relation]
        starts = probe_column.starts[probe_rows]
        ends = probe_column.ends[probe_rows]
        for probe, row in window_blocks(index, step.kind, starts, ends):

            def endpoints(term: Term):
                column = columns[term]
                rows = (
                    row
                    if term.relation == step.relation
                    else binding[term.relation][probe]
                )
                return column.starts[rows], column.ends[rows]

            for position, cond in enumerate(step.conditions):
                mask = cond.predicate.holds_columns(
                    *endpoints(cond.left), *endpoints(cond.right)
                )
                if self._two_way and position == 0:
                    charged += int(np.count_nonzero(mask))
                else:
                    charged += len(mask)
                probe, row = probe[mask], row[mask]
            if len(row):
                extended = {name: rows[probe] for name, rows in binding.items()}
                extended[step.relation] = row
                charged += yield from self._extend(
                    k + 1, extended, columns, accept
                )
        return charged


def anchored_join(
    query: IntervalJoinQuery,
    count_comparisons: Callable[[int], None],
    columns: Columns,
    anchors: Sequence[Term],
    partitioning: Partitioning,
    coordinate: int,
    accept: Optional[Accept] = None,
) -> Iterator[Binding]:
    """The join decomposed by its *last local member*.

    A row of an anchor term is *local* when its interval starts in
    partition ``coordinate`` of ``partitioning`` (located once per
    call).  A reducer that owns exactly the tuples with at least one
    local member gets each of them from exactly one run: run ``k``
    drives the join from anchor ``k``'s local rows, allows any row for
    the anchors before it and only non-local rows for those after it.
    Combinations of purely non-local rows — owned elsewhere — are never
    enumerated, so the work stays proportional to the reducer's own
    output.  All runs share ``columns``' sort orders.
    """
    local = [
        partitioning.locate_array(columns[term].starts) == coordinate
        for term in anchors
    ]
    for k, term in enumerate(anchors):
        masks = {term.relation: local[k]}
        for later, later_local in zip(anchors[k + 1:], local[k + 1:]):
            masks[later.relation] = ~later_local
        run = {
            t: c.restrict(masks[t.relation]) if t.relation in masks else c
            for t, c in columns.items()
        }
        joiner = LocalJoiner(query, count_comparisons, start_with=term.relation)
        yield from joiner.join_columns(run, accept)


class TupleReducer(KernelReducer):
    """A reducer emitting the join tuples of the bindings ``_join(key,
    columns, counters)`` yields over one key group's columns, one row of
    member gids per tuple, committed as a tuple block of the members'
    row indices.  Subclasses set ``query`` and count
    comparisons through ``counters``, not a cached joiner's: one
    instance serves concurrently running tasks under the threads
    executor."""

    query: IntervalJoinQuery
    _join: Callable[[Hashable, Columns, Any], Iterator[Binding]]

    def kernel(self, key, group: ColumnValues, counters) -> np.ndarray:
        columns, gids = group_columns(self.query, group)
        blocks = [np.empty((0, len(gids)), dtype=np.int64)]
        for binding in self._join(key, columns, counters):
            blocks.append(np.stack([gids[name][binding[name]] for name in gids], axis=1))
        return np.concatenate(blocks)

    def format(self, block, store):
        # One row-index column per relation: the job tuples' block.
        relations = self.query.relations
        return store.block(block.reshape(-1, len(relations)), [[n] for n in relations], False)
