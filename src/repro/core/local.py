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
  condition — for a colocation condition only the half of the
  intersecting window its start order allows, unless a step of three or
  more relations evaluates another condition first (then the whole
  window); every row only when nothing connects the relation's index
  attribute;
* the step's conditions are array masks, evaluated in
  ``query.conditions`` order, each over the survivors of the one before
  — except a sequence access condition: its ``ENDING_BEFORE`` /
  ``STARTING_AFTER`` window is exactly its true set, so the window
  stands in for the mask (where the window's keys and probes share a
  dtype, so its ``searchsorted`` compares as the mask would) and the
  step charges what the mask would have: one per candidate;
* no step expands more than ``sweep.MAX_CANDIDATE_PAIRS`` candidate
  pairs at once (:meth:`~repro.intervals.sweep.WindowPlan.blocks` cuts
  the partial bindings into blocks first).

``work:comparisons`` is charged by rule (the cost model prices it).
Three or more relations: each step charges one per (candidate, condition
evaluated); the candidates are those of the **first** colocation
condition on the relation's index attribute (its first query attribute),
else of the **last** sequence condition on it, else every row; the first
step charges nothing.  The rule counts the whole intersecting window
of a colocation access condition even where the step expands only its
half: the half's candidates are the window's less the pairs its start
order rules out, and the charge for the first condition is read from
the plan's bounds (:meth:`~repro.intervals.sweep.WindowPlan.intersecting`).
Two relations: one per pair *satisfying* the first condition — which is
the access path — then one per further condition evaluated, which no
narrowing moves.  The total is reported once per join.

An optional ``accept`` mask filters complete bindings after the last
step, so it charges nothing: a grid reducer passes its "this cell owns
the tuple" rule, which makes grid output exactly-once, and passes
``None`` for a cell where routing and the anchored runs already settled
ownership — no dimension of it can fail on the cell's rows
(:func:`~repro.core.algorithms.gen_matrix.cell_owner`).  A joiner's
binding order and steps are planned once per query and first relation
and shared, read-only, by every joiner of the pair, across tasks and
threads; the comparisons counter stays each joiner's own.
"""

from __future__ import annotations

import threading
import weakref
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
from repro.intervals.sweep import (
    ALL_ROWS,
    COVERING_START,
    ENDING_BEFORE,
    INTERSECTING,
    STARTING_WITHIN,
    SortedColumns,
    WindowPlan,
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
    #: the access condition when it is a sequence predicate — the one
    #: whose window is exactly its true set — else ``None``.
    exact: Optional[JoinCondition]


def _index_term(query: IntervalJoinQuery, relation: str) -> Term:
    return Term(relation, query.attributes_of(relation)[0])


def _plan_steps(query: IntervalJoinQuery, order: Sequence[str]) -> List[_Step]:
    two_way = len(query.relations) == 2
    steps = []
    for k in range(1, len(order)):
        name, bound = order[k], set(order[: k + 1])
        conditions = tuple(
            c
            for c in query.conditions
            if {c.left.relation, c.right.relation} <= bound
            and name in (c.left.relation, c.right.relation)
        )
        kind, index, probe = (
            ALL_ROWS, _index_term(query, name), _index_term(query, order[0])
        )
        exact = None
        for position, cond in enumerate(conditions[:1] if two_way else conditions):
            mine, other = cond.left, cond.right
            if mine.relation != name:
                mine, other = other, mine
            if two_way:
                index = mine
            elif mine != index:
                continue
            kind = window_kind(cond.predicate, mine is cond.left)
            probe, exact = other, cond
            if cond.predicate.is_colocation:
                exact = None
                if position:
                    # Conditions before it are charged per candidate
                    # of the whole window: it cannot be narrowed.
                    kind = INTERSECTING
                break
        steps.append(_Step(name, conditions, kind, index, probe, exact))
    return steps


#: A joiner's plan: its binding order and its steps.
_Plan = Tuple[Tuple[str, ...], Tuple[_Step, ...]]
#: Per query, the plan from each first relation; the query is never
#: mutated, so a plan never goes stale.
_PLANS: "weakref.WeakKeyDictionary[IntervalJoinQuery, Dict[Optional[str], _Plan]]" = (
    weakref.WeakKeyDictionary()
)
_PLANS_LOCK = threading.Lock()


def _planned(query: IntervalJoinQuery, start_with: Optional[str]) -> _Plan:
    with _PLANS_LOCK:
        plans = _PLANS.setdefault(query, {})
        if start_with not in plans:
            order = tuple(binding_order(query, start_with))
            plans[start_with] = order, tuple(_plan_steps(query, order))
        return plans[start_with]


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
        self._binding_order, self._steps = _planned(query, start_with)
        self._two_way = len(query.relations) == 2

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
            len(columns[_index_term(self.query, name)]) == 0
            for name in self.query.relations
        ):
            return
        first = self._binding_order[0]
        seed = {first: columns[_index_term(self.query, first)].rows()}
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
        plan = WindowPlan(index, step.kind, starts, ends)
        # A narrowed step of three or more relations still charges its
        # access condition, evaluated first, per candidate of the whole
        # intersecting window.
        whole = not self._two_way and step.kind in (STARTING_WITHIN, COVERING_START)
        if whole:
            charged += plan.intersecting()
        exact = step.exact
        if exact is not None:
            # The window compares the index's keys with the probes by
            # ``searchsorted``: the mask's own comparison when both are
            # of one dtype (float64 against ``object`` could round).
            keys, searched = (
                (index.ends, starts) if step.kind == ENDING_BEFORE else (index.starts, ends)
            )
            if keys.dtype != searched.dtype:
                exact = None
        for probe, row in plan.blocks():

            def endpoints(term: Term):
                column = columns[term]
                rows = (
                    row
                    if term.relation == step.relation
                    else binding[term.relation][probe]
                )
                return column.starts[rows], column.ends[rows]

            for position, cond in enumerate(step.conditions):
                if cond is exact:
                    # All true: the two-way rule's count of the mask and
                    # the multi-way rule's length of it are both this.
                    charged += len(row)
                    continue
                mask = cond.predicate.holds_columns(
                    *endpoints(cond.left), *endpoints(cond.right)
                )
                if self._two_way and position == 0:
                    charged += int(np.count_nonzero(mask))
                elif position or not whole:
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
    local: Sequence[np.ndarray],
    accept: Optional[Accept] = None,
) -> Iterator[Binding]:
    """The join decomposed by its *last local member*.

    A row of an anchor term is *local* where the term's boolean column
    in ``local`` is true — its interval starts in the reducer's own
    partition, located by the caller.  A reducer that owns exactly the
    tuples with at least one local member gets each of them from exactly
    one run: run ``k`` drives the join from anchor ``k``'s local rows,
    allows any row for the anchors before it and only non-local rows for
    those after it.  Combinations of purely non-local rows — owned
    elsewhere — are never enumerated, so the work stays proportional to
    the reducer's own output.  All runs share ``columns``' sort orders.
    """
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
        # Column-major: each relation's binding rows, laid end to end,
        # are gathered from its gids once, straight into its own column
        # — what the committed block's ``member`` reads.
        columns, gids = group_columns(self.query, group)
        bound: Dict[str, List[np.ndarray]] = {name: [] for name in gids}
        for binding in self._join(key, columns, counters):
            for name, parts in bound.items():
                parts.append(binding[name])
        size = sum(map(len, next(iter(bound.values()))))
        block = np.empty((size, len(bound)), dtype=np.int64, order="F")
        for slot, (name, parts) in enumerate(bound.items()):
            if parts:
                rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
                # The rows indexed the group's columns in the join
                # already: "clip" clips none of them, and spares the
                # bounds check "raise" buffers ``out`` for.
                np.take(gids[name], rows, out=block[:, slot], mode="clip")
        return block

    def format(self, block, store):
        # One row-index column per relation: the job tuples' block.
        relations = self.query.relations
        return store.block(block.reshape(-1, len(relations)), [[n] for n in relations], False)
