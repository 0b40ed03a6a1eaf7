"""Tests for cost-based partition / grid tuning."""

import pytest

from tests.conftest import make_dataset

from repro.errors import PlanningError
from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.core.tuning import (
    profile_data,
    recommend_grid,
    recommend_partitions,
)
from repro.mapreduce.cost import CostModel

Q_COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
Q_SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)


def scaled_model(scale=2_000.0):
    base = CostModel()
    return CostModel(
        read_cost=base.read_cost * scale,
        shuffle_cost=base.shuffle_cost * scale,
        comparison_cost=base.comparison_cost * scale,
        output_cost=0.0,
        per_cycle_overhead=base.per_cycle_overhead,
    )


class TestProfile:
    def test_profile_statistics(self):
        data = make_dataset(["R1", "R2", "R3"], 50, seed=1, span=100,
                            max_length=10)
        profile = profile_data(Q_COLOCATION, data)
        assert profile.total_rows == 150
        assert profile.rows_per_relation == {"R1": 50, "R2": 50, "R3": 50}
        assert 0 < profile.mean_length <= 10
        assert profile.time_span >= 100 * 0.5

    def test_empty_profile(self):
        from repro.core.schema import Relation

        data = {name: Relation(name, []) for name in ("R1", "R2", "R3")}
        profile = profile_data(Q_COLOCATION, data)
        assert profile.total_rows == 0
        assert profile.mean_length == 0.0


class TestRecommendPartitions:
    def test_rejects_non_colocation(self):
        data = make_dataset(["R1", "R2", "R3"], 5)
        with pytest.raises(PlanningError):
            recommend_partitions(Q_SEQUENCE, data)

    def test_recommendation_is_near_measured_optimum(self):
        data = make_dataset(
            ["R1", "R2", "R3"], 600, seed=4, span=50_000, max_length=500
        )
        cost = scaled_model()
        report = recommend_partitions(
            Q_COLOCATION, data, cost, candidates=(2, 4, 8, 16, 32, 64)
        )
        measured = {
            parts: execute(
                Q_COLOCATION, data, algorithm="rccis",
                num_partitions=parts, cost_model=cost,
            ).metrics.simulated_seconds
            for parts in (2, 4, 8, 16, 32, 64)
        }
        best_measured = min(measured, key=measured.get)
        # The analytic prediction should land within one step of the
        # measured optimum.
        ratio = report.best.partitions / best_measured
        assert 0.5 <= ratio <= 2.0, (report.best.partitions, measured)

    def test_more_boundary_crossing_discourages_fine_partitions(self):
        short = make_dataset(
            ["R1", "R2", "R3"], 200, seed=5, span=50_000, max_length=50
        )
        long = make_dataset(
            ["R1", "R2", "R3"], 200, seed=5, span=50_000, max_length=5_000
        )
        cost = scaled_model()
        report_short = recommend_partitions(Q_COLOCATION, short, cost)
        report_long = recommend_partitions(Q_COLOCATION, long, cost)
        assert report_long.best.partitions <= report_short.best.partitions


class TestRecommendShares:
    def _hybrid_data(self):
        data = make_dataset(["R1"], 300, seed=1)
        data.update(make_dataset(["R2"], 20, seed=2))
        data.update(make_dataset(["R3"], 40, seed=3))
        return data

    def test_rejects_single_dimension(self):
        from repro.core.tuning import recommend_shares

        data = make_dataset(["R1", "R2", "R3"], 5)
        with pytest.raises(PlanningError):
            recommend_shares(Q_COLOCATION, data)

    def test_heavy_dimension_gets_more_shares(self):
        from repro.core.tuning import recommend_shares

        q = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
        )
        rec = recommend_shares(q, self._hybrid_data(), cell_budget=36)
        # Dimension 0 holds R1+R3 (340 rows); dimension 1 holds R2 (20).
        assert rec.shares[0] > rec.shares[1]
        assert rec.total_cells <= 36

    def test_shares_run_correctly_and_ship_less(self):
        from repro.core.planner import ALGORITHMS
        from repro.core.reference import reference_join
        from repro.core.tuning import recommend_shares

        q = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
        )
        data = self._hybrid_data()
        rec = recommend_shares(q, data, cell_budget=36)
        tuned = ALGORITHMS["all_seq_matrix"](grid_parts=rec.shares).run(
            q, data, num_partitions=6
        )
        uniform = ALGORITHMS["all_seq_matrix"](grid_parts=6).run(
            q, data, num_partitions=6
        )
        reference = reference_join(q, data)
        assert tuned.same_output(reference)
        assert uniform.same_output(reference)
        assert tuned.metrics.shuffled_records < uniform.metrics.shuffled_records

    def test_prediction_tracks_measurement(self):
        from repro.core.planner import ALGORITHMS
        from repro.core.tuning import recommend_shares

        q = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
        )
        data = self._hybrid_data()
        rec = recommend_shares(q, data, cell_budget=36)
        result = ALGORITHMS["all_seq_matrix"](grid_parts=rec.shares).run(
            q, data, num_partitions=6
        )
        measured = result.metrics.shuffled_records
        assert 0.5 * measured <= rec.predicted_shuffled <= 2.0 * measured


class TestNonUniformGrid:
    def test_grid_spec_boundary_consistency(self):
        from repro.core.graph import JoinGraph
        from repro.core.algorithms.gen_matrix import GridSpec
        from repro.intervals.partitioning import Partitioning

        q = IntervalJoinQuery.parse(
            [("R1", "overlaps", "R2"), ("R2", "before", "R4")]
        )
        p_fine = Partitioning.uniform(0, 100, 4)
        p_coarse = Partitioning.uniform(0, 100, 2)
        grid = GridSpec(JoinGraph(q), [p_fine, p_coarse])
        assert grid.total_cells == 8
        # Cell (i, j) survives iff a start in fine partition i can
        # precede one in coarse partition j: i=2,3 (starts >= 50)
        # with j=0 ([0,50)) are impossible... except i can equal: fine
        # partition 2 starts at 50 = coarse 0's end -> pruned.
        assert (3, 0) not in grid.cells
        assert (2, 0) not in grid.cells
        assert (1, 0) in grid.cells  # starts in [25,50) precede < 50
        assert (3, 1) in grid.cells

    @pytest.mark.parametrize("shares", [(4, 2), (2, 5), (6, 1)])
    def test_non_uniform_matches_reference(self, shares):
        from repro.core.planner import ALGORITHMS

        from tests.conftest import assert_matches_reference

        q = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
        )
        data = make_dataset(["R1", "R2", "R3"], 40, seed=11)
        result = ALGORITHMS["all_seq_matrix"](grid_parts=shares).run(
            q, data, num_partitions=4
        )
        assert_matches_reference(q, data, result)

    def test_wrong_share_count_rejected(self):
        from repro.core.planner import ALGORITHMS

        q = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
        )
        data = make_dataset(["R1", "R2", "R3"], 10, seed=12)
        with pytest.raises(PlanningError):
            ALGORITHMS["all_seq_matrix"](grid_parts=(2, 3, 4)).run(
                q, data
            )


class TestRecommendGrid:
    def test_rejects_single_component(self):
        data = make_dataset(["R1", "R2", "R3"], 5)
        with pytest.raises(PlanningError):
            recommend_grid(Q_COLOCATION, data)

    def test_grid_recommendation_sane(self):
        data = make_dataset(
            ["R1", "R2", "R3"], 100, seed=6, span=1_000, max_length=100
        )
        cost = scaled_model()
        report = recommend_grid(Q_SEQUENCE, data, cost)
        assert report.best.partitions >= 2
        assert report.best.predicted_seconds > 0
        # Candidates are monotone in neither direction (U-shape); the
        # chosen one must be the argmin.
        assert report.best.predicted_seconds == min(
            c.predicted_seconds for c in report.candidates
        )

    def test_grid_recommendation_tracks_measurement(self):
        data = make_dataset(
            ["R1", "R2", "R3"], 100, seed=7, span=1_000, max_length=100
        )
        cost = scaled_model()
        report = recommend_grid(
            Q_SEQUENCE, data, cost, candidates=(2, 4, 6, 8)
        )
        measured = {}
        for o in (2, 4, 6, 8):
            from repro.core.planner import ALGORITHMS

            result = ALGORITHMS["all_matrix"](grid_parts=o).run(
                Q_SEQUENCE, data, num_partitions=o, cost_model=cost
            )
            measured[o] = result.metrics.simulated_seconds
        best_measured = min(measured, key=measured.get)
        assert abs(report.best.partitions - best_measured) <= 4, (
            report.best.partitions,
            measured,
        )


class TestCellCounts:
    """The tuners count the consistent cells of the grid that will run,
    by its rule: only the provably sound component orders prune."""

    #: ``R4 before R3`` orders the two components, but R2 may start
    #: after R4 ends, so the order does not prune the grid.
    QUERY = IntervalJoinQuery.parse(
        [("R4", "overlaps", "R2"), ("R2", "overlaps", "R1"),
         ("R4", "before", "R3")]
    )

    def _run_cells(self, data, shares):
        from repro.core.planner import ALGORITHMS

        result = ALGORITHMS["gen_matrix"](grid_parts=shares).run(
            self.QUERY, data, num_partitions=4
        )
        return result.metrics.consistent_reducers

    def test_recommend_grid_counts_the_cells_that_run(self):
        data = make_dataset(["R1", "R2", "R3", "R4"], 40, seed=5)
        report = recommend_grid(self.QUERY, data, candidates=(2, 4, 6))
        for candidate in report.candidates:
            cells = self._run_cells(data, candidate.partitions)
            assert candidate.predicted_max_load == pytest.approx(
                candidate.predicted_shuffled / cells
            ), candidate.partitions

    def test_recommend_shares_counts_the_cells_that_run(self):
        from repro.core.tuning import recommend_shares

        data = make_dataset(["R1", "R2", "R3", "R4"], 40, seed=5)
        rec = recommend_shares(self.QUERY, data, cell_budget=36)
        assert rec.total_cells == self._run_cells(data, rec.shares)
