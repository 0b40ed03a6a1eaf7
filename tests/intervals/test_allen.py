"""Unit tests for Allen's interval algebra predicates."""

import pytest

from repro.errors import UnknownPredicateError
from repro.intervals.allen import (
    ALLEN_PREDICATES,
    AFTER,
    BEFORE,
    CONTAINS,
    EQUALS,
    MEETS,
    OVERLAPS,
    STARTS,
    MapOperator,
    get_predicate,
    relation_between,
)
from repro.intervals.interval import Interval


# Canonical witness pairs: (predicate, left, right)
WITNESSES = [
    ("before", Interval(0, 2), Interval(3, 5)),
    ("after", Interval(3, 5), Interval(0, 2)),
    ("meets", Interval(0, 2), Interval(2, 5)),
    ("met_by", Interval(2, 5), Interval(0, 2)),
    ("overlaps", Interval(0, 3), Interval(2, 5)),
    ("overlapped_by", Interval(2, 5), Interval(0, 3)),
    ("starts", Interval(1, 3), Interval(1, 5)),
    ("started_by", Interval(1, 5), Interval(1, 3)),
    ("during", Interval(2, 3), Interval(1, 5)),
    ("contains", Interval(1, 5), Interval(2, 3)),
    ("finishes", Interval(3, 5), Interval(1, 5)),
    ("finished_by", Interval(1, 5), Interval(3, 5)),
    ("equals", Interval(1, 5), Interval(1, 5)),
]


class TestTruthTables:
    @pytest.mark.parametrize("name,left,right", WITNESSES)
    def test_witness_satisfies_exactly_its_predicate(self, name, left, right):
        for other_name, predicate in ALLEN_PREDICATES.items():
            expected = other_name == name
            assert predicate.holds(left, right) is expected, (
                f"{other_name}({left}, {right}) should be {expected}"
            )

    @pytest.mark.parametrize("name,left,right", WITNESSES)
    def test_relation_between_identifies_witness(self, name, left, right):
        assert relation_between(left, right).name == name

    @pytest.mark.parametrize("name,left,right", WITNESSES)
    def test_inverse_symmetry(self, name, left, right):
        predicate = ALLEN_PREDICATES[name]
        assert predicate.inverse.holds(right, left)
        assert predicate.inverse.inverse is predicate

    def test_thirteen_relations(self):
        assert len(ALLEN_PREDICATES) == 13

    def test_touching_point_intervals_are_unambiguous(self):
        def relations_holding(u, v):
            return [p for p in ALLEN_PREDICATES.values() if p.holds(u, v)]

        # A point at another interval's right endpoint finishes it (not
        # meets / met_by) under closed-interval semantics.
        assert relations_holding(Interval(3, 3), Interval(1, 3)) == [
            ALLEN_PREDICATES["finishes"]
        ]
        assert relations_holding(Interval(1, 3), Interval(3, 3)) == [
            ALLEN_PREDICATES["finished_by"]
        ]
        assert relations_holding(Interval(3, 3), Interval(3, 5)) == [
            ALLEN_PREDICATES["starts"]
        ]
        assert relations_holding(Interval(3, 3), Interval(3, 3)) == [
            ALLEN_PREDICATES["equals"]
        ]


class TestClassification:
    def test_sequence_predicates(self):
        assert BEFORE.is_sequence
        assert AFTER.is_sequence
        assert not BEFORE.is_colocation

    def test_colocation_predicates(self):
        for name, predicate in ALLEN_PREDICATES.items():
            if name not in ("before", "after"):
                assert predicate.is_colocation, name

    def test_colocation_implies_intersection(self):
        for name, left, right in WITNESSES:
            predicate = ALLEN_PREDICATES[name]
            if predicate.is_colocation:
                assert left.intersects(right), name
            else:
                assert not left.intersects(right), name


class TestEnforcedOrders:
    @pytest.mark.parametrize("name,left,right", WITNESSES)
    def test_orders_hold_on_witnesses(self, name, left, right):
        predicate = ALLEN_PREDICATES[name]
        if predicate.enforces_left_first():
            assert left.start <= right.start
        if predicate.enforces_right_first():
            assert right.start <= left.start

    def test_every_predicate_enforces_some_order(self):
        for predicate in ALLEN_PREDICATES.values():
            assert predicate.orders

    def test_equal_start_predicates_enforce_both(self):
        for name in ("starts", "started_by", "equals"):
            predicate = ALLEN_PREDICATES[name]
            assert predicate.enforces_left_first()
            assert predicate.enforces_right_first()


class TestOperatorTable:
    def test_sequence_uses_replicate_on_earlier_side(self):
        assert BEFORE.left_operator is MapOperator.REPLICATE
        assert BEFORE.right_operator is MapOperator.PROJECT
        assert AFTER.left_operator is MapOperator.PROJECT
        assert AFTER.right_operator is MapOperator.REPLICATE

    def test_colocation_splits_earlier_side(self):
        assert OVERLAPS.left_operator is MapOperator.SPLIT
        assert OVERLAPS.right_operator is MapOperator.PROJECT
        assert CONTAINS.left_operator is MapOperator.SPLIT

    def test_equal_start_predicates_project_both(self):
        for name in ("starts", "started_by", "equals"):
            predicate = ALLEN_PREDICATES[name]
            assert predicate.left_operator is MapOperator.PROJECT
            assert predicate.right_operator is MapOperator.PROJECT

    def test_exactly_one_side_projects(self):
        # Each 2-way join pins its output tuple through a projected side.
        for predicate in ALLEN_PREDICATES.values():
            assert MapOperator.PROJECT in (
                predicate.left_operator,
                predicate.right_operator,
            )


class TestLookup:
    def test_canonical_names(self):
        assert get_predicate("overlaps") is OVERLAPS
        assert get_predicate("Overlaps") is OVERLAPS

    def test_symbols_and_aliases(self):
        assert get_predicate("<") is BEFORE
        assert get_predicate("o") is OVERLAPS
        assert get_predicate("=") is EQUALS
        assert get_predicate("contained_by").name == "during"

    def test_instance_passthrough(self):
        assert get_predicate(MEETS) is MEETS

    def test_unknown_raises(self):
        with pytest.raises(UnknownPredicateError):
            get_predicate("sideways")

    def test_starts_is_symmetricly_projected(self):
        assert STARTS.left_operator is MapOperator.PROJECT
