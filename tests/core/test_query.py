"""Unit tests for the query model and class detection."""

import pytest

from repro.errors import QueryError
from repro.core.query import IntervalJoinQuery, JoinCondition, QueryClass, Term


class TestTerm:
    def test_parse_bare_relation(self):
        term = Term.parse("R1")
        assert term == Term("R1", "I")

    def test_parse_qualified(self):
        assert Term.parse("R1.len") == Term("R1", "len")

    def test_parse_malformed(self):
        with pytest.raises(QueryError):
            Term.parse("a.b.c")
        with pytest.raises(QueryError):
            Term.parse("a.")


class TestJoinCondition:
    def test_parse(self):
        cond = JoinCondition.parse("R1", "overlaps", "R2")
        assert cond.predicate.name == "overlaps"
        assert cond.is_colocation

    def test_self_join_rejected(self):
        with pytest.raises(QueryError):
            JoinCondition.parse("R1", "overlaps", "R1")

    def test_as_triple(self):
        cond = JoinCondition.parse("R1", "before", "R2")
        left, pred, right = cond.as_triple()
        assert (left, pred.name, right) == ("R1", "before", "R2")


class TestQueryConstruction:
    def test_relation_order_is_first_appearance(self):
        q = IntervalJoinQuery.parse(
            [("B", "overlaps", "C"), ("A", "overlaps", "B")]
        )
        assert q.relations == ("B", "C", "A")

    def test_explicit_relation_order(self):
        q = IntervalJoinQuery.parse(
            [("B", "overlaps", "C"), ("A", "overlaps", "B")],
            relations=["A", "B", "C"],
        )
        assert q.relations == ("A", "B", "C")

    def test_explicit_order_must_cover_all(self):
        with pytest.raises(QueryError):
            IntervalJoinQuery.parse(
                [("A", "overlaps", "B")], relations=["A"]
            )

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            IntervalJoinQuery([])

    def test_disconnected_rejected(self):
        with pytest.raises(QueryError):
            IntervalJoinQuery.parse(
                [("A", "overlaps", "B"), ("C", "overlaps", "D")]
            )


class TestQueryClass:
    def test_colocation(self):
        q = IntervalJoinQuery.parse(
            [("R1", "overlaps", "R2"), ("R2", "contains", "R3")]
        )
        assert q.query_class is QueryClass.COLOCATION

    def test_sequence(self):
        q = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R2", "before", "R3")]
        )
        assert q.query_class is QueryClass.SEQUENCE

    def test_hybrid(self):
        q = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
        )
        assert q.query_class is QueryClass.HYBRID

    def test_general_multi_attribute(self):
        q = IntervalJoinQuery.parse(
            [("R1.I", "overlaps", "R2.I"), ("R1.A", "=", "R2.A")]
        )
        assert q.query_class is QueryClass.GENERAL
        assert not q.is_single_attribute

    def test_single_attribute_with_custom_name(self):
        q = IntervalJoinQuery.parse([("R1.t", "overlaps", "R2.t")])
        assert q.is_single_attribute
        assert q.query_class is QueryClass.COLOCATION


class TestQueryIntrospection:
    def test_terms(self):
        q = IntervalJoinQuery.parse(
            [("R1.I", "overlaps", "R2.I"), ("R1.A", "=", "R2.A")]
        )
        assert set(q.terms) == {
            Term("R1", "I"),
            Term("R2", "I"),
            Term("R1", "A"),
            Term("R2", "A"),
        }

    def test_terms_are_stored_once_in_first_appearance_order(self):
        q = IntervalJoinQuery.parse(
            [("R2.J", "overlaps", "R1"), ("R1", "before", "R3"), ("R2.J", "during", "R3")]
        )
        assert q.terms == (Term("R2", "J"), Term("R1", "I"), Term("R3", "I"))
        assert q.terms is q.terms
        assert q.attributes_of("R2") == ("J",)

    @pytest.mark.parametrize("copy", ["pickle", "deepcopy"])
    def test_terms_survive_pickle_and_deepcopy(self, copy):
        import copy as copying
        import pickle

        q = IntervalJoinQuery.parse(
            [("R1.I", "overlaps", "R2.J"), ("R2.I", "after", "R3.I")],
            relations=["R3", "R2", "R1"],
        )
        again = pickle.loads(pickle.dumps(q)) if copy == "pickle" else copying.deepcopy(q)
        assert again is not q
        assert again.terms == q.terms
        assert again.conditions == q.conditions and again.relations == q.relations
        assert again.attributes_of("R2") == q.attributes_of("R2") == ("J", "I")
        assert again.query_class is q.query_class is QueryClass.GENERAL

    def test_attributes_of(self):
        q = IntervalJoinQuery.parse(
            [("R1.I", "overlaps", "R2.I"), ("R1.A", "=", "R2.A")]
        )
        assert q.attributes_of("R1") == ("I", "A")

    def test_conditions_as_triples_requires_single_attribute(self):
        q = IntervalJoinQuery.parse(
            [("R1.I", "overlaps", "R2.I"), ("R1.A", "=", "R2.A")]
        )
        with pytest.raises(QueryError):
            q.conditions_as_triples()

    def test_validate_against(self):
        q = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        with pytest.raises(QueryError):
            q.validate_against({"R1": object()})
