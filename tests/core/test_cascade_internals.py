"""Unit tests for the cascade's planning internals."""


from repro.core.algorithms.cascade import (
    _routing_condition,
    _step_conditions,
)
from repro.core.local import binding_order
from repro.core.query import IntervalJoinQuery


class TestBindingOrder:
    def test_chain_order_is_connected(self):
        q = IntervalJoinQuery.parse(
            [("A", "overlaps", "B"), ("B", "overlaps", "C")]
        )
        assert binding_order(q) == ["A", "B", "C"]

    def test_star_stays_connected(self):
        q = IntervalJoinQuery.parse(
            [("Hub", "contains", "S1"), ("Hub", "contains", "S2"),
             ("Hub", "contains", "S3")]
        )
        order = binding_order(q)
        assert order[0] == "Hub"
        assert set(order) == {"Hub", "S1", "S2", "S3"}

    def test_every_step_touches_bound_set(self):
        q = IntervalJoinQuery.parse(
            [
                ("A", "overlaps", "B"),
                ("C", "before", "B"),
                ("C", "overlaps", "D"),
            ]
        )
        order = binding_order(q)
        for index in range(1, len(order)):
            assert _step_conditions(q, order[:index], order[index])


class TestStepConditions:
    def test_collects_all_edges_into_bound_set(self):
        q = IntervalJoinQuery.parse(
            [
                ("A", "overlaps", "B"),
                ("B", "overlaps", "C"),
                ("A", "before", "C"),
            ]
        )
        conditions = _step_conditions(q, ["A", "B"], "C")
        assert len(conditions) == 2  # B ov C and A bf C

    def test_ignores_unrelated_conditions(self):
        q = IntervalJoinQuery.parse(
            [("A", "overlaps", "B"), ("B", "overlaps", "C")]
        )
        conditions = _step_conditions(q, ["A"], "C")
        assert conditions == []


class TestRoutingCondition:
    def test_prefers_colocation(self):
        q = IntervalJoinQuery.parse(
            [
                ("A", "before", "C"),
                ("B", "overlaps", "C"),
                ("A", "overlaps", "B"),
            ]
        )
        step = _step_conditions(q, ["A", "B"], "C")
        routing = _routing_condition(step)
        assert routing.is_colocation

    def test_falls_back_to_sequence(self):
        q = IntervalJoinQuery.parse([("A", "before", "B")])
        step = _step_conditions(q, ["A"], "B")
        assert _routing_condition(step).predicate.name == "before"
