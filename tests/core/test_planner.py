"""Unit tests for planning and the high-level execute() entry point."""

import pytest

from tests.conftest import assert_matches_reference, make_dataset

from repro.errors import PlanningError
from repro.core.executor import execute
from repro.core.planner import ALGORITHMS, choose_algorithm, plan
from repro.core.query import IntervalJoinQuery
from repro.core.results import ExecutionMetrics
from repro.core.schema import Relation
from repro.intervals.interval import Interval


class TestChooseAlgorithm:
    def test_two_way_short_circuit(self):
        q = IntervalJoinQuery.parse([("A", "overlaps", "B")])
        assert choose_algorithm(q).name == "two_way"

    def test_colocation_gets_rccis(self):
        q = IntervalJoinQuery.parse(
            [("A", "overlaps", "B"), ("B", "overlaps", "C")]
        )
        assert choose_algorithm(q).name == "rccis"

    def test_sequence_gets_all_matrix(self):
        q = IntervalJoinQuery.parse(
            [("A", "before", "B"), ("B", "before", "C")]
        )
        assert choose_algorithm(q).name == "all_matrix"

    def test_hybrid_gets_asm_or_pasm(self):
        q = IntervalJoinQuery.parse(
            [("A", "before", "B"), ("A", "overlaps", "C")]
        )
        assert choose_algorithm(q).name == "all_seq_matrix"
        assert choose_algorithm(q, prune=True).name == "pasm"

    def test_general_gets_gen_matrix(self):
        q = IntervalJoinQuery.parse(
            [("A.I", "overlaps", "B.I"), ("A.x", "=", "B.x")]
        )
        assert choose_algorithm(q).name == "gen_matrix"

    def test_registry_contains_all_algorithms(self):
        assert set(ALGORITHMS) == {
            "two_way",
            "two_way_cascade",
            "all_replicate",
            "rccis",
            "all_matrix",
            "all_seq_matrix",
            "pasm",
            "gen_matrix",
            "fcts",
            "fstc",
        }


class TestPlan:
    def test_provably_empty(self):
        q = IntervalJoinQuery.parse(
            [("A", "before", "B"), ("B", "before", "C"), ("C", "before", "A")]
        )
        p = plan(q)
        assert p.provably_empty
        assert p.algorithm is None

    def test_satisfiable_plan(self):
        q = IntervalJoinQuery.parse([("A", "overlaps", "B")])
        p = plan(q)
        assert not p.provably_empty
        assert p.algorithm is not None


class TestExecute:
    def test_default_planner(self):
        data = make_dataset(["A", "B", "C"], 25, seed=1)
        q = IntervalJoinQuery.parse(
            [("A", "overlaps", "B"), ("B", "overlaps", "C")]
        )
        result = execute(q, data, num_partitions=4)
        assert result.metrics.algorithm == "rccis"
        assert_matches_reference(q, data, result)

    def test_algorithm_by_name(self):
        data = make_dataset(["A", "B"], 20, seed=2)
        q = IntervalJoinQuery.parse([("A", "overlaps", "B")])
        result = execute(q, data, algorithm="all_replicate")
        assert result.metrics.algorithm == "all_replicate"

    def test_algorithm_instance(self):
        from repro.core.algorithms.rccis import RCCIS

        data = make_dataset(["A", "B", "C"], 10, seed=3)
        q = IntervalJoinQuery.parse(
            [("A", "overlaps", "B"), ("B", "overlaps", "C")]
        )
        result = execute(q, data, algorithm=RCCIS())
        assert result.metrics.algorithm == "rccis"

    def test_unknown_algorithm(self):
        data = make_dataset(["A", "B"], 5)
        q = IntervalJoinQuery.parse([("A", "overlaps", "B")])
        with pytest.raises(PlanningError):
            execute(q, data, algorithm="quantum")

    def test_empty_query_answered_without_jobs(self):
        q = IntervalJoinQuery.parse(
            [("A", "before", "B"), ("B", "before", "C"), ("C", "before", "A")]
        )
        data = make_dataset(["A", "B", "C"], 10, seed=4)
        result = execute(q, data)
        assert len(result) == 0
        assert result.metrics.num_cycles == 0

    @pytest.mark.parametrize(
        "bad",
        [
            {"executor": "gpu"},
            {"max_attempts": 0},
            {"workers": 0},
            {"faults": 1.5},
            {"task_timeout": -1.0},
        ],
    )
    def test_invalid_options_rejected_even_when_provably_empty(self, bad):
        """Run options are resolved before planning: a query the planner
        answers without running jobs still rejects a bad option, exactly
        as a query that runs does."""
        from repro.errors import MapReduceError

        data = make_dataset(["A", "B", "C"], 10, seed=4)
        empty = IntervalJoinQuery.parse(
            [("A", "before", "B"), ("B", "before", "C"), ("C", "before", "A")]
        )
        runs = IntervalJoinQuery.parse([("A", "overlaps", "B")])
        for query in (empty, runs):
            with pytest.raises(MapReduceError):
                execute(query, data, **bad)

    def test_missing_relation_rejected(self):
        q = IntervalJoinQuery.parse([("A", "overlaps", "B")])
        with pytest.raises(Exception):
            execute(q, {"A": Relation("A", [])})


class TestResults:
    def test_same_output(self):
        data = make_dataset(["A", "B"], 15, seed=5)
        q = IntervalJoinQuery.parse([("A", "overlaps", "B")])
        r1 = execute(q, data, algorithm="two_way")
        r2 = execute(q, data, algorithm="all_replicate")
        assert r1.same_output(r2)

    def test_metrics_combine(self):
        a = ExecutionMetrics(algorithm="a", num_cycles=1, shuffled_records=10)
        b = ExecutionMetrics(algorithm="b", num_cycles=2, shuffled_records=5)
        merged = ExecutionMetrics.combine("c", [a, b])
        assert merged.num_cycles == 3
        assert merged.shuffled_records == 15

    def test_load_summary_properties(self):
        m = ExecutionMetrics(algorithm="x", reducer_loads={0: 10, 1: 30})
        assert m.max_reducer_load == 30
        assert m.mean_reducer_load == 20
