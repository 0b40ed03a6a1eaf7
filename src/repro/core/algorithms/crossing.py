"""Finding consistent-and-crossing interval sets (the heart of RCCIS).

Round one of RCCIS must decide, for every interval ``u`` starting inside a
partition ``p``, whether some interval-set containing ``u`` is *consistent*
(condition C1, Section 5.2), *crosses* ``p`` (condition C2, Section 5.3),
and can actually combine with a **later** partial tuple — only then does
replicating ``u`` rightward ever pay off.

The last clause deserves explanation.  Definition 5.3 applies crossing
obligations per boundary edge, so a set whose relation-set covers *all*
query relations has no obligations and "crosses" vacuously; likewise a set
whose absent relations are all enforced to start no later than the present
ones can only ever extend *leftward*.  The paper handles the first case by
remark ("note that an output tuple is not a crossing-set") and leaves the
second implicit; both are captured exactly by one structural condition we
call the **late escape**:

    some absent relation A has no enforced less-than-order path
    ``A <= ... <= X`` to any present relation X.

If every absent relation is order-dominated by the present set, every
completion's member starts are bounded by the present members' starts, so
the completed tuple's right-most member starts inside ``p`` and the tuple
is computed at ``p`` itself, where splitting already colocates everything
— no replication required.  Conversely (see DESIGN.md) any output tuple
whose right-most member starts after ``p`` induces, at ``p``, a presence
pattern with a late escape, so completeness is preserved.  This is what
makes RCCIS's replication counts tiny (the paper's Table 1).

Solving
-------
Membership is decided per *presence pattern*: for each subset of relations
taken as present (the candidate set's relation-set), the boundary edges to
absent relations become unary constraints (the B1/B2 crossing rules) and
the internal edges binary Allen constraints.  Patterns without a late
escape are skipped.  For each surviving pattern the CSP restricted to the
present relations is solved exactly: acyclic constraint graphs by two-pass
directional arc consistency (complete on trees), cyclic ones by
backtracking.  The number of patterns is ``2^m - 1`` with ``m`` the number
of query relations — trivially small for real queries (the paper's maximum
is five).

Everything runs on endpoint columns, one
:class:`~repro.intervals.sweep.SortedColumns` per relation.  A
condition's support is never a matrix: it is the ``(left row, right
row)`` index columns of its true pairs — the pair kernel's
(:func:`repro.intervals.sweep.true_pairs`) blocks, concatenated —
computed when the first pattern needs it and shared by the patterns
after it.  A tree message is a boolean scatter over those
columns and the cyclic solver walks them as neighbour sets, so one
partition costs memory proportional to its rows plus its true pairs, at
every size.

:func:`flag_columns` is the flagging decision the flag-cycle reducers of
RCCIS and of the grid algorithms share.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.intervals.allen import AllenPredicate, partner_placements
from repro.intervals.partitioning import Partitioning
from repro.intervals.sweep import SortedColumns, true_pairs

__all__ = [
    "CrossingSetFinder",
    "count_flagged",
    "flag_columns",
    "has_late_escape",
]

#: conditions keyed by relation name, as produced by
#: :meth:`repro.core.query.IntervalJoinQuery.conditions_as_triples`.
Condition = Tuple[str, AllenPredicate, str]

#: A condition's support: the ``(left row, right row)`` index columns of
#: its true pairs, looked up by condition index.
Support = Callable[[int], Tuple[np.ndarray, np.ndarray]]


def order_reachability(
    relations: Sequence[str], conditions: Sequence[Condition]
) -> Dict[str, Set[str]]:
    """``reach[A]`` = relations enforced (transitively) to start at or
    after ``A`` — i.e. all X with an order path ``A <= ... <= X``.
    ``A`` itself is not included."""
    successors: Dict[str, Set[str]] = {name: set() for name in relations}
    for left, predicate, right in conditions:
        if predicate.enforces_left_first():
            successors[left].add(right)
        if predicate.enforces_right_first():
            successors[right].add(left)
    reach: Dict[str, Set[str]] = {}
    for name in relations:
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for nxt in successors[current]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reach[name] = seen
    return reach


def has_late_escape(
    present: FrozenSet[str],
    relations: Sequence[str],
    reach: Mapping[str, Set[str]],
) -> bool:
    """Whether some absent relation can contribute an interval starting
    after the partition (no order path into the present set)."""
    for name in relations:
        if name in present:
            continue
        if not (reach[name] & present):
            return True
    return False


class CrossingSetFinder:
    """Solves the replication decision for one partition of one query.

    Parameters
    ----------
    relations:
        The component's relation names (CSP variables).
    conditions:
        The component-internal conditions (colocation predicates in the
        paper's setting; the finder is predicate-agnostic).
    partitioning, partition_index:
        The partition whose crossing sets are sought.
    """

    #: Guard against pathological queries: 2^m patterns.
    MAX_RELATIONS = 16

    def __init__(
        self,
        relations: Sequence[str],
        conditions: Sequence[Condition],
        partitioning: Partitioning,
        partition_index: int,
    ) -> None:
        if len(relations) > self.MAX_RELATIONS:
            raise ValueError(
                f"crossing-set search over {len(relations)} relations "
                "would enumerate too many presence patterns"
            )
        self.relations = list(relations)
        relation_set = set(relations)
        self.conditions = [
            (left, pred, right)
            for left, pred, right in conditions
            if left in relation_set and right in relation_set
        ]
        self.partitioning = partitioning
        self.partition_index = partition_index
        self._reach = order_reachability(self.relations, self.conditions)

    # ------------------------------------------------------------------
    def replicable(
        self, columns_by_relation: Mapping[str, SortedColumns]
    ) -> Dict[str, np.ndarray]:
        """For each relation, a boolean mask over its intervals: True when
        the interval belongs to some consistent crossing set with a late
        escape.

        ``columns_by_relation`` must hold the intervals *intersecting*
        the partition (the reducer's split input) as endpoint columns,
        none for an absent relation; the caller restricts the returned
        mask to intervals *starting* in the partition before flagging
        (:func:`flag_columns`).
        """
        empty = np.empty(0, dtype=np.float64)
        absent = SortedColumns(empty, empty)
        columns = {
            name: columns_by_relation.get(name, absent)
            for name in self.relations
        }
        out = {
            name: np.zeros(len(columns[name].starts), dtype=bool)
            for name in self.relations
        }
        owed = self._obligations(columns)

        pairs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        no_rows = np.empty(0, dtype=np.int64)

        def support(index: int) -> Tuple[np.ndarray, np.ndarray]:
            if index not in pairs:
                left, predicate, right = self.conditions[index]
                blocks = [(no_rows, no_rows)]
                blocks += true_pairs(predicate, columns[left], columns[right])
                pairs[index] = tuple(map(np.concatenate, zip(*blocks)))
            return pairs[index]

        for r in range(1, len(self.relations) + 1):
            for present_tuple in itertools.combinations(self.relations, r):
                present = frozenset(present_tuple)
                if not has_late_escape(present, self.relations, self._reach):
                    continue
                # The B1/B2 obligations toward absent partners.
                unary = {}
                for name in present:
                    unary[name] = np.ones(len(out[name]), dtype=bool)
                    for partner, mask in owed[name]:
                        if partner not in present:
                            unary[name] &= mask
                if not all(mask.any() for mask in unary.values()):
                    continue
                feasible = self._solve_pattern(present, unary, support)
                if feasible is None:
                    continue
                for name, mask in feasible.items():
                    out[name] |= mask
        return out

    # ------------------------------------------------------------------
    def _obligations(
        self, columns: Mapping[str, SortedColumns]
    ) -> Dict[str, List[Tuple[str, np.ndarray]]]:
        """Per relation, ``(partner, mask)`` for each condition it is in:
        the crossing obligation its intervals are under while ``partner``
        is absent (:func:`~repro.intervals.sets.crosses`).  The partner
        lies wholly after the partition — where the predicate lets it
        start after the member, which must then end in a later partition
        (B1), exactly when it reaches the right boundary, partitions being
        half-open — or wholly before it — where the predicate lets it end
        before the member, which must then start in an earlier one (B2).
        Nothing crosses the outer edge of the first or last partition."""
        locate, here = self.partitioning.locate_array, self.partition_index
        ends_later = {n: locate(c.ends) > here for n, c in columns.items()}
        starts_earlier = {n: locate(c.starts) < here for n, c in columns.items()}
        owed: Dict[str, List[Tuple[str, np.ndarray]]] = {
            name: [] for name in self.relations
        }
        for left, predicate, right in self.conditions:
            for member, partner, member_is_left in ((left, right, True), (right, left, False)):
                after, before = partner_placements(predicate.name, member_is_left)
                owed[member].append(
                    (partner, (after & ends_later[member]) | (before & starts_earlier[member]))
                )
        return owed

    # ------------------------------------------------------------------
    def _solve_pattern(
        self,
        present: FrozenSet[str],
        unary: Mapping[str, np.ndarray],
        support: Support,
    ) -> Optional[Dict[str, np.ndarray]]:
        """Feasible-value masks for one presence pattern, or None when the
        pattern admits no satisfying assignment.  Each connected
        component of the pattern's internal constraint graph is solved on
        its own (cross-component members are mutually unconstrained)."""
        internal = [
            index
            for index, (left, _, right) in enumerate(self.conditions)
            if left in present and right in present
        ]
        feasible: Dict[str, np.ndarray] = {}
        unsolved = sorted(present)
        while unsolved:
            members = set(self._breadth_first(unsolved[0], internal)[0])
            names = [name for name in unsolved if name in members]
            edges = [i for i in internal if self.conditions[i][0] in members]
            solve = (
                self._solve_tree
                if self._edges_form_tree(names, edges)
                else self._solve_backtracking
            )
            solved = solve(names, edges, unary, support)
            if solved is None:
                return None
            feasible.update(solved)
            unsolved = [name for name in unsolved if name not in members]
        return feasible

    @staticmethod
    def _edges_form_tree(names: List[str], edges: List[int]) -> bool:
        # A connected graph is a tree iff |E| = |V| - 1 (multi-edges
        # between the same pair count as cycles, conservatively).
        return len(edges) == len(names) - 1

    def _breadth_first(
        self, root: str, edges: List[int]
    ) -> Tuple[List[str], Dict[str, int]]:
        """The component's relations in breadth-first order from ``root``
        and, for each but the root, the edge it was reached through."""
        adjacency: Dict[str, List[int]] = defaultdict(list)
        for index in edges:
            left, _, right = self.conditions[index]
            adjacency[left].append(index)
            adjacency[right].append(index)
        order: List[str] = [root]
        reached_by: Dict[str, int] = {}
        cursor = 0
        while cursor < len(order):
            current = order[cursor]
            cursor += 1
            for index in adjacency[current]:
                left, _, right = self.conditions[index]
                neighbour = right if left == current else left
                if neighbour != root and neighbour not in reached_by:
                    reached_by[neighbour] = index
                    order.append(neighbour)
        return order, reached_by

    # ------------------------------------------------------------------
    # Tree solver: two-pass directional arc consistency (complete on
    # trees: every surviving value extends to a full solution).
    # ------------------------------------------------------------------
    def _solve_tree(
        self,
        names: List[str],
        edges: List[int],
        unary: Mapping[str, np.ndarray],
        support: Support,
    ) -> Optional[Dict[str, np.ndarray]]:
        root = names[0]
        order, parent_edge = self._breadth_first(root, edges)

        def message(target: str, source_mask: np.ndarray, index: int) -> np.ndarray:
            """Values of ``target`` supported across edge ``index`` by some
            allowed value of the other endpoint: a scatter over the
            edge's true pairs."""
            left_rows, right_rows = support(index)
            if target == self.conditions[index][0]:
                mine, theirs = left_rows, right_rows
            else:
                mine, theirs = right_rows, left_rows
            supported = np.zeros(len(unary[target]), dtype=bool)
            supported[mine[source_mask[theirs]]] = True
            return supported

        # Upward pass.
        up: Dict[str, np.ndarray] = {}
        children: Dict[str, List[str]] = defaultdict(list)
        for child, index in parent_edge.items():
            left, _, right = self.conditions[index]
            parent = right if left == child else left
            children[parent].append(child)
        for name in reversed(order):
            mask = np.array(unary[name], copy=True)
            for child in children[name]:
                mask &= message(name, up[child], parent_edge[child])
            up[name] = mask
        if not up[root].any():
            return None

        # Downward pass.
        down: Dict[str, np.ndarray] = {root: np.ones_like(up[root])}
        for name in order:
            if name == root:
                continue
            index = parent_edge[name]
            left, _, right = self.conditions[index]
            parent = right if left == name else left
            parent_mask = unary[parent] & down[parent]
            for sibling in children[parent]:
                if sibling != name:
                    parent_mask &= message(
                        parent, up[sibling], parent_edge[sibling]
                    )
            down[name] = message(name, parent_mask, index)

        return {name: up[name] & down[name] for name in names}

    # ------------------------------------------------------------------
    # Cyclic fallback: per-value backtracking satisfiability.
    # ------------------------------------------------------------------
    def _solve_backtracking(
        self,
        names: List[str],
        edges: List[int],
        unary: Mapping[str, np.ndarray],
        support: Support,
    ) -> Optional[Dict[str, np.ndarray]]:
        # Each edge's true pairs between unary-feasible values, as
        # neighbour sets in both directions: (edge, from) -> value -> the
        # other endpoint's compatible values.
        neighbours: Dict[Tuple[int, str], Dict[int, Set[int]]] = {}
        #: relation -> its (edge, other endpoint) pairs.
        touching: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
        for index in edges:
            left, _, right = self.conditions[index]
            touching[left].append((index, right))
            touching[right].append((index, left))
            left_rows, right_rows = support(index)
            keep = unary[left][left_rows] & unary[right][right_rows]
            forward = neighbours[index, left] = defaultdict(set)
            backward = neighbours[index, right] = defaultdict(set)
            for a, b in zip(left_rows[keep].tolist(), right_rows[keep].tolist()):
                forward[a].add(b)
                backward[b].add(a)

        def extend(order: List[str], k: int, assignment: Dict[str, int]) -> bool:
            """Complete ``assignment`` over ``order[k:]``.  The order is
            breadth first, so each relation is chosen among the common
            neighbours of the bound relations it shares an edge with."""
            if k == len(order):
                return True
            name = order[k]
            choices: Optional[Set[int]] = None
            for index, other in touching[name]:
                if other in assignment:
                    compatible = neighbours[index, other].get(
                        assignment[other], set()
                    )
                    choices = (
                        compatible if choices is None else choices & compatible
                    )
            for choice in choices or ():
                assignment[name] = choice
                if extend(order, k + 1, assignment):
                    return True
                del assignment[name]
            return False

        out = {name: np.zeros(len(unary[name]), dtype=bool) for name in names}
        for name in names:
            order, _ = self._breadth_first(name, edges)
            for value in np.flatnonzero(unary[name]).tolist():
                if out[name][value]:
                    continue  # member of a solution found earlier
                assignment = {name: value}
                if extend(order, 1, assignment):
                    for member, row in assignment.items():
                        out[member][row] = True
        if not any(mask.any() for mask in out.values()):
            return None
        return out


def flag_columns(
    relations: Sequence[str],
    conditions: Sequence[Condition],
    partitioning: Partitioning,
    partition_index: int,
    columns_by_relation: Mapping[str, SortedColumns],
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """The flagging decision of one flag-cycle reducer: for each relation
    it received, ``(local, flagged)`` boolean masks over its intervals —
    which start in this partition (each interval is decided at exactly
    one reducer, its start partition's), and which of those must be
    replicated."""
    finder = CrossingSetFinder(
        relations, conditions, partitioning, partition_index
    )
    replicable = finder.replicable(columns_by_relation)
    decisions = {}
    for name, column in columns_by_relation.items():
        local = partitioning.locate_array(column.starts) == partition_index
        decisions[name] = (local, replicable[name] & local)
    return decisions


def count_flagged(
    decisions: Mapping[str, Tuple[np.ndarray, np.ndarray]], counters
) -> None:
    """Charge a reducer's flagged intervals to ``join:replicated_intervals``
    (never creating the counter at zero)."""
    flagged = sum(
        int(np.count_nonzero(flagged)) for _, flagged in decisions.values()
    )
    if flagged:
        counters.increment("join", "replicated_intervals", flagged)
