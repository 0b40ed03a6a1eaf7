"""Allen's interval algebra (Allen, CACM 1983).

This module defines the thirteen basic relations between two intervals,
together with the metadata the paper's algorithms rely on:

* whether the relation is a *colocation* predicate (the two intervals must
  share at least one point) or a *sequence* predicate (``before``/``after``,
  the intervals are disjoint) — Section 1 of the paper;
* the *less-than-order* each predicate enforces between its two operand
  relations (Section 5.1, Figure 1) — i.e. which operand is guaranteed to
  start no later than the other;
* the project/split/replicate operator assignment used for 2-way joins
  (Section 4, Figure 1).

The thirteen relations are mutually exclusive and jointly exhaustive: for
any two intervals exactly one relation holds (property-tested in
``tests/properties``).

Operator-table derivation
-------------------------
The figure in the paper's source text is garbled, so the table is re-derived
from first principles (see DESIGN.md):

* For every colocation predicate enforcing ``X < Y`` the start point of the
  later interval lies within the earlier interval's closed span, hence
  ``Split(earlier) & Project(later)`` always colocates a satisfying pair at
  the reducer owning the later interval's start partition.
* When the predicate forces equal start points (``starts``, ``started_by``,
  ``equals``) both intervals project onto the same partition, so
  ``Project & Project`` suffices.
* For sequence predicates the satisfying partner may be arbitrarily far to
  the right, hence ``Replicate(earlier) & Project(later)``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Tuple, Union

import numpy as np

from repro.errors import UnknownPredicateError
from repro.intervals.interval import Interval

__all__ = [
    "MapOperator",
    "Order",
    "AllenPredicate",
    "ALLEN_PREDICATES",
    "COLOCATION_PREDICATES",
    "SEQUENCE_PREDICATES",
    "get_predicate",
    "partner_placements",
    "relation_between",
    "BEFORE",
    "AFTER",
    "MEETS",
    "MET_BY",
    "OVERLAPS",
    "OVERLAPPED_BY",
    "STARTS",
    "STARTED_BY",
    "DURING",
    "CONTAINS",
    "FINISHES",
    "FINISHED_BY",
    "EQUALS",
]


class MapOperator(enum.Enum):
    """The three communication primitives of Section 3."""

    PROJECT = "project"
    SPLIT = "split"
    REPLICATE = "replicate"


class Order(enum.Enum):
    """Which operand of ``A P B`` is enforced to start no later.

    ``LEFT_FIRST`` means every satisfying pair has ``A.start <= B.start``;
    ``RIGHT_FIRST`` the converse.  Predicates that force equal start points
    enforce both.
    """

    LEFT_FIRST = "left_first"
    RIGHT_FIRST = "right_first"


@dataclass(frozen=True)
class AllenPredicate:
    """One of the thirteen basic relations of Allen's algebra.

    Attributes
    ----------
    name:
        Canonical lowercase name (``"overlaps"``, ``"before"``, ...).
    symbol:
        Allen's traditional one/two-letter symbol (``"o"``, ``"<"``, ...).
    holds:
        The truth function over a pair of :class:`Interval` values.
    holds_columns:
        The same truth function over endpoint columns ``(u_starts, u_ends,
        v_starts, v_ends)`` — equal-length numpy arrays, float64 or
        ``object`` — returning a boolean mask.
    inverse_name:
        Name of the converse relation: ``P(a, b)`` iff ``inverse(b, a)``.
    is_sequence:
        True for ``before``/``after``; all other relations are colocation
        predicates (satisfying intervals share at least one point).
    orders:
        The less-than-orders the predicate enforces (Figure 1).
    left_operator / right_operator:
        The Section-4 map operator applied to the left/right relation when
        computing the 2-way join ``A P B``.
    """

    name: str
    symbol: str
    holds: Callable[[Interval, Interval], bool]
    holds_columns: Callable[..., np.ndarray]
    inverse_name: str
    is_sequence: bool
    orders: FrozenSet[Order]
    left_operator: MapOperator
    right_operator: MapOperator

    # ------------------------------------------------------------------
    @property
    def is_colocation(self) -> bool:
        """True for the eleven predicates requiring a shared point."""
        return not self.is_sequence

    @property
    def inverse(self) -> "AllenPredicate":
        """The converse relation (``before`` <-> ``after`` etc.)."""
        return ALLEN_PREDICATES[self.inverse_name]

    def enforces_left_first(self) -> bool:
        """Whether every satisfying pair has ``left.start <= right.start``."""
        return Order.LEFT_FIRST in self.orders

    def enforces_right_first(self) -> bool:
        """Whether every satisfying pair has ``right.start <= left.start``."""
        return Order.RIGHT_FIRST in self.orders

    def __call__(self, left: Interval, right: Interval) -> bool:
        return self.holds(left, right)

    def __reduce__(self):
        # The thirteen relations are registry singletons; travel by name.
        return (get_predicate, (self.name,))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# ----------------------------------------------------------------------
# Truth functions.  u = left operand, v = right operand.
# ----------------------------------------------------------------------

def _before(u: Interval, v: Interval) -> bool:
    return u.end < v.start


def _after(u: Interval, v: Interval) -> bool:
    return v.end < u.start


def _meets(u: Interval, v: Interval) -> bool:
    # The two extra strict inequalities keep the thirteen relations mutually
    # exclusive for closed intervals that degenerate to points: a point
    # touching another interval's endpoint classifies as starts/finishes
    # (shared endpoint semantics) rather than meets.
    return u.end == v.start and u.start < v.start and v.start < v.end


def _met_by(u: Interval, v: Interval) -> bool:
    return _meets(v, u)


def _overlaps(u: Interval, v: Interval) -> bool:
    return u.start < v.start and v.start < u.end and u.end < v.end


def _overlapped_by(u: Interval, v: Interval) -> bool:
    return _overlaps(v, u)


def _starts(u: Interval, v: Interval) -> bool:
    return u.start == v.start and u.end < v.end


def _started_by(u: Interval, v: Interval) -> bool:
    return _starts(v, u)


def _during(u: Interval, v: Interval) -> bool:
    return v.start < u.start and u.end < v.end


def _contains(u: Interval, v: Interval) -> bool:
    return _during(v, u)


def _finishes(u: Interval, v: Interval) -> bool:
    return u.end == v.end and v.start < u.start


def _finished_by(u: Interval, v: Interval) -> bool:
    return _finishes(v, u)


def _equals(u: Interval, v: Interval) -> bool:
    return u.start == v.start and u.end == v.end


# The same truth functions over endpoint columns (``us``/``ue``: the left
# operand's start/end arrays, ``vs``/``ve``: the right's); an inverse
# relation evaluates its converse's with the operands swapped.
_COLUMN_FNS = {
    "before": lambda us, ue, vs, ve: ue < vs,
    "meets": lambda us, ue, vs, ve: (ue == vs) & (us < vs) & (vs < ve),
    "overlaps": lambda us, ue, vs, ve: (us < vs) & (vs < ue) & (ue < ve),
    "starts": lambda us, ue, vs, ve: (us == vs) & (ue < ve),
    "during": lambda us, ue, vs, ve: (vs < us) & (ue < ve),
    "finishes": lambda us, ue, vs, ve: (ue == ve) & (vs < us),
    "equals": lambda us, ue, vs, ve: (us == vs) & (ue == ve),
}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_LEFT = frozenset({Order.LEFT_FIRST})
_RIGHT = frozenset({Order.RIGHT_FIRST})
_BOTH = frozenset({Order.LEFT_FIRST, Order.RIGHT_FIRST})

_P = MapOperator.PROJECT
_S = MapOperator.SPLIT
_R = MapOperator.REPLICATE


def _predicate(
    name: str,
    symbol: str,
    fn: Callable[[Interval, Interval], bool],
    inverse: str,
    sequence: bool,
    orders: FrozenSet[Order],
    ops: Tuple[MapOperator, MapOperator],
) -> AllenPredicate:
    columns_fn = _COLUMN_FNS.get(name)
    if columns_fn is None:
        converse = _COLUMN_FNS[inverse]
        columns_fn = lambda us, ue, vs, ve: converse(vs, ve, us, ue)
    return AllenPredicate(
        name=name,
        symbol=symbol,
        holds=fn,
        holds_columns=columns_fn,
        inverse_name=inverse,
        is_sequence=sequence,
        orders=orders,
        left_operator=ops[0],
        right_operator=ops[1],
    )


BEFORE = _predicate("before", "<", _before, "after", True, _LEFT, (_R, _P))
AFTER = _predicate("after", ">", _after, "before", True, _RIGHT, (_P, _R))
MEETS = _predicate("meets", "m", _meets, "met_by", False, _LEFT, (_S, _P))
MET_BY = _predicate("met_by", "mi", _met_by, "meets", False, _RIGHT, (_P, _S))
OVERLAPS = _predicate(
    "overlaps", "o", _overlaps, "overlapped_by", False, _LEFT, (_S, _P)
)
OVERLAPPED_BY = _predicate(
    "overlapped_by", "oi", _overlapped_by, "overlaps", False, _RIGHT, (_P, _S)
)
STARTS = _predicate("starts", "s", _starts, "started_by", False, _BOTH, (_P, _P))
STARTED_BY = _predicate(
    "started_by", "si", _started_by, "starts", False, _BOTH, (_P, _P)
)
DURING = _predicate("during", "d", _during, "contains", False, _RIGHT, (_P, _S))
CONTAINS = _predicate("contains", "di", _contains, "during", False, _LEFT, (_S, _P))
FINISHES = _predicate(
    "finishes", "f", _finishes, "finished_by", False, _RIGHT, (_P, _S)
)
FINISHED_BY = _predicate(
    "finished_by", "fi", _finished_by, "finishes", False, _LEFT, (_S, _P)
)
EQUALS = _predicate("equals", "=", _equals, "equals", False, _BOTH, (_P, _P))


ALLEN_PREDICATES: Dict[str, AllenPredicate] = {
    p.name: p
    for p in (
        BEFORE,
        AFTER,
        MEETS,
        MET_BY,
        OVERLAPS,
        OVERLAPPED_BY,
        STARTS,
        STARTED_BY,
        DURING,
        CONTAINS,
        FINISHES,
        FINISHED_BY,
        EQUALS,
    )
}

#: Aliases accepted by :func:`get_predicate` in addition to canonical names.
_ALIASES: Dict[str, str] = {
    "contained_by": "during",
    "containedby": "during",
    "overlapped-by": "overlapped_by",
    "met-by": "met_by",
    "started-by": "started_by",
    "finished-by": "finished_by",
    "equal": "equals",
    "<": "before",
    ">": "after",
    "m": "meets",
    "mi": "met_by",
    "o": "overlaps",
    "oi": "overlapped_by",
    "s": "starts",
    "si": "started_by",
    "d": "during",
    "di": "contains",
    "f": "finishes",
    "fi": "finished_by",
    "=": "equals",
    "==": "equals",
}

COLOCATION_PREDICATES: Tuple[AllenPredicate, ...] = tuple(
    p for p in ALLEN_PREDICATES.values() if p.is_colocation
)
SEQUENCE_PREDICATES: Tuple[AllenPredicate, ...] = (BEFORE, AFTER)


def get_predicate(name: Union[str, AllenPredicate]) -> AllenPredicate:
    """Look up an Allen predicate by name, symbol, or instance.

    Accepts canonical names (``"overlaps"``), Allen symbols (``"o"``),
    common aliases (``"contained_by"``), and is case-insensitive.

    Raises
    ------
    UnknownPredicateError
        If the name does not denote one of the thirteen relations.
    """
    if isinstance(name, AllenPredicate):
        return name
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return ALLEN_PREDICATES[key]
    except KeyError:
        raise UnknownPredicateError(
            f"unknown Allen predicate {name!r}; expected one of "
            f"{sorted(ALLEN_PREDICATES)}"
        ) from None


def relation_between(u: Interval, v: Interval) -> AllenPredicate:
    """The unique basic relation holding between two intervals.

    For closed intervals — including degenerate point intervals — exactly
    one of the thirteen relations holds under this library's truth
    functions (property-tested in ``tests/properties``).
    """
    for predicate in ALLEN_PREDICATES.values():
        if predicate.holds(u, v):
            return predicate
    raise AssertionError(  # pragma: no cover - exhaustiveness is tested
        f"no Allen relation holds between {u} and {v}"
    )


@functools.lru_cache(maxsize=None)
def partner_placements(predicate_name: str, member_is_left: bool) -> Tuple[bool, bool]:
    """``(after, before)``: whether ``member P partner`` (``partner P
    member`` unless ``member_is_left``) lets the partner start after the
    member and end before it — where an absent partner of a crossing set
    can lie (:func:`repro.intervals.sets.crosses`).  Read off every pair
    of intervals on four points, which realise each relation."""
    predicate = get_predicate(predicate_name)
    intervals = [Interval(a, b) for a in range(4) for b in range(a, 4)]
    pairs = [
        (member, partner) for member in intervals for partner in intervals
        if predicate.holds(*((member, partner) if member_is_left else (partner, member)))
    ]
    return (
        any(partner.start > member.start for member, partner in pairs),
        any(partner.end < member.end for member, partner in pairs),
    )
