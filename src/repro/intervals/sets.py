"""Consistent interval-sets and crossing interval-sets (Sections 5.2, 5.3).

These are the two structural notions RCCIS is built on.  To keep this
module free of any dependency on the query layer, a *condition* is the
plain triple ``(left_relation, predicate, right_relation)`` and an
*interval-set* is a mapping from relation name to the single interval the
set holds for that relation (condition A1 — no two intervals of a set may
come from the same relation — is thereby structural).

The functions here are direct, checkable transcriptions of the paper's
definitions; the production crossing-set *finder* used inside RCCIS lives
in :mod:`repro.core.algorithms.crossing` and is validated against these
definitions in the test suite.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple, Union

from repro.intervals.allen import AllenPredicate, get_predicate, partner_placements
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning

__all__ = ["Condition", "normalize_conditions", "is_consistent", "crosses"]

#: ``(left_relation_name, predicate, right_relation_name)``
Condition = Tuple[str, AllenPredicate, str]


def normalize_conditions(
    conditions: Iterable[Tuple[str, Union[str, AllenPredicate], str]],
) -> Tuple[Condition, ...]:
    """Resolve predicate names to :class:`AllenPredicate` instances."""
    return tuple(
        (left, get_predicate(pred), right) for left, pred, right in conditions
    )


def is_consistent(
    interval_set: Mapping[str, Interval],
    conditions: Sequence[Condition],
) -> bool:
    """Whether an interval-set is *consistent* for the given query.

    Condition A1 (one interval per relation) holds by construction of the
    mapping; condition A2 requires every query condition whose two
    relations are both present in the set to be satisfied by the
    corresponding intervals.  Every subset of a consistent set is itself
    consistent, since dropping relations only removes applicable
    conditions.
    """
    for left, predicate, right in conditions:
        if left in interval_set and right in interval_set:
            if not predicate.holds(interval_set[left], interval_set[right]):
                return False
    return True


def crosses(
    interval_set: Mapping[str, Interval],
    conditions: Sequence[Condition],
    partitioning: Partitioning,
    partition_index: int,
) -> bool:
    """Whether an interval-set *crosses* a partition-interval (Section 5.3).

    The set crosses partition ``p`` when

    * every member interval intersects ``p``, and
    * for every query condition joining a member relation to an absent
      relation, the absent partner has a place outside ``p`` that the
      member reaches: wholly after ``p`` — which needs a predicate that
      lets the partner start after the member, and the member's end
      point beyond ``p``'s right boundary (B1) — or wholly before ``p``
      — which needs one that lets the partner end before the member, and
      the member's start point before ``p``'s left boundary (B2)
      (:func:`partner_placements`).  A member that *contains* its
      partner may have it on either side; one that *starts*, *finishes*,
      *equals* or lies *during* its partner has none, because that
      partner would itself intersect ``p`` and thus could never be
      absent.  For ``before`` / ``after`` this is B1 for the operand
      enforced to start first and B2 for the other.

    Note the definition deliberately does *not* require the set to be
    consistent; RCCIS checks consistency (C1) and crossing (C2) as separate
    conditions.
    """
    part = partitioning.partition_interval(partition_index)
    for interval in interval_set.values():
        if not interval.intersects(part):
            return False
    for left, predicate, right in conditions:
        for member, partner, member_is_left in ((left, right, True), (right, left, False)):
            if member not in interval_set or partner in interval_set:
                continue
            interval = interval_set[member]
            after, before = partner_placements(predicate.name, member_is_left)
            if not (
                (after and partitioning.crosses_right(interval, partition_index))
                or (before and partitioning.crosses_left(interval, partition_index))
            ):
                return False
    return True
