"""Property-based tests for Allen's algebra (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals.allen import ALLEN_PREDICATES, relation_between
from repro.intervals.interval import Interval
from repro.columnar.batch import endpoint_column


def intervals(min_value=-50, max_value=50, allow_points=True):
    """Strategy for closed intervals with integer-ish endpoints (so
    equality-based relations are actually reachable)."""
    def build(pair):
        a, b = sorted(pair)
        if not allow_points and a == b:
            b = a + 1
        return Interval(a, b)

    scalars = st.integers(min_value=min_value, max_value=max_value)
    return st.tuples(scalars, scalars).map(build)


class TestExclusivityExhaustiveness:
    @given(intervals(), intervals())
    @settings(max_examples=400)
    def test_exactly_one_relation_holds(self, u, v):
        holding = [p for p in ALLEN_PREDICATES.values() if p.holds(u, v)]
        assert len(holding) == 1, (
            f"{[p.name for p in holding]} all hold for {u}, {v}"
        )

    @given(intervals(), intervals())
    @settings(max_examples=200)
    def test_relation_between_consistent(self, u, v):
        predicate = relation_between(u, v)
        assert predicate.holds(u, v)


class TestInverses:
    @given(intervals(), intervals())
    @settings(max_examples=200)
    def test_inverse_is_converse(self, u, v):
        for predicate in ALLEN_PREDICATES.values():
            assert predicate.holds(u, v) == predicate.inverse.holds(v, u)

    @given(intervals(), intervals())
    @settings(max_examples=200)
    def test_relation_of_swapped_pair_is_inverse(self, u, v):
        assert relation_between(v, u).name == relation_between(u, v).inverse_name


class TestSemanticInvariants:
    @given(intervals(), intervals())
    @settings(max_examples=200)
    def test_colocation_iff_intersection(self, u, v):
        predicate = relation_between(u, v)
        assert predicate.is_colocation == u.intersects(v)

    @given(intervals(), intervals())
    @settings(max_examples=200)
    def test_enforced_orders_hold(self, u, v):
        predicate = relation_between(u, v)
        if predicate.enforces_left_first():
            assert u.start <= v.start
        if predicate.enforces_right_first():
            assert v.start <= u.start

    @given(intervals())
    @settings(max_examples=100)
    def test_equals_is_reflexive(self, u):
        assert relation_between(u, u).name == "equals"


class TestVectorizedAgreement:
    """``holds_columns`` — what the reducer-local join and the
    crossing-set finder evaluate — must agree with the scalar truth
    function pair for pair, over float64 columns and over the ``object``
    columns that hold endpoints beyond 2**53 exactly."""

    @given(
        st.lists(st.tuples(intervals(), intervals()), min_size=1, max_size=40),
        st.sampled_from([0, 2**53]),
    )
    @settings(max_examples=100)
    def test_holds_columns_matches_scalar(self, pairs, base):
        pairs = [
            (
                Interval(base + u.start, base + u.end),
                Interval(base + v.start, base + v.end),
            )
            for u, v in pairs
        ]
        columns = [
            endpoint_column(list(values))
            for values in zip(
                *((u.start, u.end, v.start, v.end) for u, v in pairs)
            )
        ]
        for predicate in ALLEN_PREDICATES.values():
            mask = predicate.holds_columns(*columns)
            assert mask.dtype == bool
            assert mask.tolist() == [
                predicate.holds(u, v) for u, v in pairs
            ], predicate.name
