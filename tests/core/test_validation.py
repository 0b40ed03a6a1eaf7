"""Unit tests for output validation."""

import pytest

from tests.conftest import make_dataset

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.core.results import ExecutionMetrics, JoinResult
from repro.core.schema import Row
from repro.core.validation import (
    ValidationError,
    assert_equivalent,
    validate_result,
)
from repro.intervals.interval import Interval


Q = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)


def run(data, algorithm="rccis"):
    return execute(Q, data, algorithm=algorithm, num_partitions=4)


class TestValidateResult:
    def test_valid_result_passes(self):
        data = make_dataset(["R1", "R2", "R3"], 30, seed=1)
        result = run(data)
        validate_result(result, data)

    def test_detects_predicate_violation(self):
        data = make_dataset(["R1", "R2", "R3"], 10, seed=2)
        result = run(data)
        bogus = (
            data["R1"].rows[0],
            data["R2"].rows[0],
            data["R3"].rows[0],
        )
        tampered = JoinResult(
            Q, list(result.tuples) + [bogus], result.metrics
        )
        # The bogus tuple almost surely violates a condition; if by luck
        # it satisfies them, it duplicates an existing tuple instead.
        with pytest.raises(ValidationError):
            validate_result(tampered, data)
            # force failure if the bogus tuple was genuinely valid & new
            raise ValidationError("unexpectedly valid")

    def test_detects_duplicates(self):
        data = make_dataset(["R1", "R2", "R3"], 30, seed=3)
        result = run(data)
        if not result.tuples:
            pytest.skip("no output at this seed")
        tampered = JoinResult(
            Q, list(result.tuples) + [result.tuples[0]], result.metrics
        )
        with pytest.raises(ValidationError, match="more than once"):
            validate_result(tampered, data)

    def test_detects_wrong_arity(self):
        data = make_dataset(["R1", "R2", "R3"], 10, seed=4)
        result = run(data)
        tampered = JoinResult(
            Q, [(data["R1"].rows[0],)], result.metrics
        )
        with pytest.raises(ValidationError, match="arity"):
            validate_result(tampered)

    def test_detects_foreign_row(self):
        data = make_dataset(["R1", "R2", "R3"], 10, seed=5)
        result = run(data)
        alien = Row.make(9999, {"I": Interval(0, 1)})
        tampered = JoinResult(
            Q,
            [(alien, data["R2"].rows[0], data["R3"].rows[0])],
            result.metrics,
        )
        with pytest.raises(ValidationError):
            validate_result(tampered, data)


class TestAssertEquivalent:
    def test_identical_results_pass(self):
        data = make_dataset(["R1", "R2", "R3"], 25, seed=6)
        a = run(data, "rccis")
        b = run(data, "all_replicate")
        assert_equivalent(a, b)
        assert_equivalent(a, b, sample=5)

    def test_mismatch_detected(self):
        data = make_dataset(["R1", "R2", "R3"], 25, seed=7)
        a = run(data)
        if not a.tuples:
            pytest.skip("no output at this seed")
        b = JoinResult(Q, a.tuples[:-1], ExecutionMetrics(algorithm="b"))
        with pytest.raises(ValidationError):
            assert_equivalent(a, b)
        with pytest.raises(ValidationError):
            assert_equivalent(a, b, sample=len(a.tuples))

