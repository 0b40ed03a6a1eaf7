"""Interval data model: the :class:`Interval` type, Allen's algebra, the
project/split/replicate partitioning primitives, and the consistent /
crossing interval-set machinery of the paper's Section 5."""

from repro.intervals.coalesce import (
    coalesce,
    gaps,
    intersect_sets,
    subtract,
    total_coverage,
)
from repro.intervals.allen import (
    ALLEN_PREDICATES,
    AllenPredicate,
    MapOperator,
    Order,
    get_predicate,
    relation_between,
)
from repro.intervals.interval import Interval, point, span
from repro.intervals.order import leftmost, less_than, rightmost, sort_by_order
from repro.intervals.partitioning import Partitioning
from repro.intervals.sets import crosses, is_consistent, normalize_conditions
from repro.intervals.sweep import join_pairs
from repro.intervals.tree import IntervalTree

__all__ = [
    "ALLEN_PREDICATES",
    "coalesce",
    "gaps",
    "intersect_sets",
    "subtract",
    "total_coverage",
    "AllenPredicate",
    "MapOperator",
    "Order",
    "get_predicate",
    "relation_between",
    "Interval",
    "point",
    "span",
    "leftmost",
    "less_than",
    "rightmost",
    "sort_by_order",
    "Partitioning",
    "crosses",
    "is_consistent",
    "normalize_conditions",
    "join_pairs",
    "IntervalTree",
]
