"""Unit tests for each algorithm's specific behaviour (correctness
against the oracle is covered exhaustively in tests/integration and
tests/properties; here we test algorithm-specific contracts)."""

import pytest

from tests.conftest import assert_matches_reference, make_dataset

from repro.errors import PlanningError
from repro.core.algorithms.all_replicate import AllReplicate, maximal_relations
from repro.core.algorithms.cascade import TwoWayCascade
from repro.core.algorithms.gen_matrix import (
    AllMatrix,
    AllSeqMatrix,
    GenMatrix,
    GridSpec,
    default_grid_parts,
)
from repro.core.algorithms.hybrid import FCTS, FSTC
from repro.core.algorithms.pasm import PASM
from repro.core.algorithms.rccis import RCCIS
from repro.core.algorithms.two_way import TwoWayJoin
from repro.core.algorithms.base import build_partitioning
from repro.core.graph import JoinGraph
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Relation
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning


Q_COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
Q_SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)
Q_HYBRID = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
)


class TestMaximalRelations:
    def test_chain_has_unique_maximum(self):
        assert maximal_relations(Q_COLOCATION) == ["R3"]
        assert maximal_relations(Q_SEQUENCE) == ["R3"]

    def test_fork_has_no_maximum(self):
        q = IntervalJoinQuery.parse(
            [("R1", "overlaps", "R2"), ("R1", "overlaps", "R3")]
        )
        assert maximal_relations(q) == []

    def test_equals_makes_both_maximal(self):
        q = IntervalJoinQuery.parse([("R1", "equals", "R2")])
        assert sorted(maximal_relations(q)) == ["R1", "R2"]


class TestRCCIS:
    def test_rejects_non_colocation(self):
        data = make_dataset(["R1", "R2", "R3"], 5)
        with pytest.raises(PlanningError):
            RCCIS().run(Q_SEQUENCE, data)

    def test_replicates_fewer_intervals_than_all_rep(self):
        data = make_dataset(["R1", "R2", "R3"], 200, seed=2, span=2000,
                            max_length=30)
        rccis = RCCIS().run(Q_COLOCATION, data, num_partitions=16)
        allrep = AllReplicate().run(Q_COLOCATION, data, num_partitions=16)
        assert rccis.same_output(allrep)
        assert (
            rccis.metrics.replicated_intervals
            < allrep.metrics.replicated_intervals
        )

    def test_two_cycles(self):
        data = make_dataset(["R1", "R2", "R3"], 30, seed=3)
        result = RCCIS().run(Q_COLOCATION, data, num_partitions=4)
        assert result.metrics.num_cycles == 2

    def test_single_partition_degenerates_gracefully(self):
        data = make_dataset(["R1", "R2", "R3"], 30, seed=4)
        result = RCCIS().run(Q_COLOCATION, data, num_partitions=1)
        assert_matches_reference(Q_COLOCATION, data, result)

    def test_equi_depth_partitioning(self):
        data = make_dataset(["R1", "R2", "R3"], 60, seed=5)
        result = RCCIS().run(
            Q_COLOCATION, data, num_partitions=6,
            partition_strategy="equi_depth",
        )
        assert_matches_reference(Q_COLOCATION, data, result)


class TestAllReplicate:
    def test_single_cycle(self):
        data = make_dataset(["R1", "R2", "R3"], 30, seed=6)
        result = AllReplicate().run(Q_COLOCATION, data, num_partitions=4)
        assert result.metrics.num_cycles == 1

    def test_projects_maximal_relation(self):
        # With a unique maximal relation only |R1|+|R2| intervals are
        # replicated.
        data = make_dataset(["R1", "R2", "R3"], 30, seed=7)
        result = AllReplicate().run(Q_COLOCATION, data, num_partitions=4)
        assert result.metrics.replicated_intervals == 60

    def test_fork_replicates_everything(self):
        q = IntervalJoinQuery.parse(
            [("R1", "overlaps", "R2"), ("R1", "overlaps", "R3")]
        )
        data = make_dataset(["R1", "R2", "R3"], 30, seed=8)
        result = AllReplicate().run(q, data, num_partitions=4)
        assert result.metrics.replicated_intervals == 90
        assert_matches_reference(q, data, result)

    def test_handles_sequence_queries(self):
        data = make_dataset(["R1", "R2", "R3"], 25, seed=9)
        result = AllReplicate().run(Q_SEQUENCE, data, num_partitions=4)
        assert_matches_reference(Q_SEQUENCE, data, result)


class TestTwoWayCascade:
    def test_cycle_count_is_steps(self):
        data = make_dataset(["R1", "R2", "R3"], 30, seed=10)
        result = TwoWayCascade().run(Q_COLOCATION, data, num_partitions=4)
        assert result.metrics.num_cycles == 2  # 3 relations -> 2 joins

    def test_four_way(self):
        q = IntervalJoinQuery.parse(
            [
                ("R1", "overlaps", "R2"),
                ("R2", "contains", "R3"),
                ("R3", "overlaps", "R4"),
            ]
        )
        data = make_dataset(["R1", "R2", "R3", "R4"], 25, seed=11)
        result = TwoWayCascade().run(q, data, num_partitions=4)
        assert result.metrics.num_cycles == 3
        assert_matches_reference(q, data, result)

    def test_sequence_steps_use_grid(self):
        data = make_dataset(["R1", "R2", "R3"], 20, seed=12)
        result = TwoWayCascade(grid_parts=4).run(
            Q_SEQUENCE, data, num_partitions=4
        )
        assert_matches_reference(Q_SEQUENCE, data, result)


class TestGridSpec:
    def test_paper_q2_grid_counts(self):
        # 3 dims, o=6, chain order: C(8,3)=56 non-decreasing triples.
        parts = Partitioning.uniform(0, 100, 6)
        grid = GridSpec(JoinGraph(Q_SEQUENCE), parts)
        assert grid.total_cells == 216
        assert len(grid.cells) == 56

    def test_paper_q5_grid_counts(self):
        # Q5: 4 dims, o=5, one order -> 375 of 625 (paper's exact number).
        q5 = IntervalJoinQuery.parse(
            [
                ("R1.I", "before", "R2.I"),
                ("R1.I", "overlaps", "R3.I"),
                ("R1.A", "=", "R3.A"),
                ("R2.B", "=", "R3.B"),
            ]
        )
        parts = Partitioning.uniform(0, 100, 5)
        grid = GridSpec(JoinGraph(q5), parts)
        assert grid.total_cells == 625
        assert len(grid.cells) == 375

    def test_unjustified_order_keeps_all_cells(self):
        # Colocation chain extending past the sequence endpoint: pruning
        # would be unsound, so no cells may be dropped.
        q = IntervalJoinQuery.parse(
            [
                ("R1", "overlaps", "R2"),
                ("R2", "overlaps", "R2b"),
                ("R1", "before", "R4"),
            ]
        )
        parts = Partitioning.uniform(0, 100, 4)
        grid = GridSpec(JoinGraph(q), parts)
        assert len(grid.cells) == grid.total_cells

    def test_justified_order_prunes(self):
        q = IntervalJoinQuery.parse(
            [("R1", "overlaps", "R2"), ("R2", "before", "R4")]
        )
        parts = Partitioning.uniform(0, 100, 4)
        grid = GridSpec(JoinGraph(q), parts)
        assert len(grid.cells) == 10  # non-decreasing pairs of 4
        assert grid.total_cells == 16

    def test_default_grid_parts(self):
        assert default_grid_parts(16, 1) == 16
        assert default_grid_parts(16, 2) == 4
        assert default_grid_parts(16, 4) == 2


class TestMatrixFamily:
    def test_all_matrix_rejects_colocation(self):
        data = make_dataset(["R1", "R2", "R3"], 5)
        with pytest.raises(PlanningError):
            AllMatrix().run(Q_COLOCATION, data)

    def test_all_matrix_single_cycle(self):
        data = make_dataset(["R1", "R2", "R3"], 20, seed=13)
        result = AllMatrix().run(Q_SEQUENCE, data, num_partitions=4)
        assert result.metrics.num_cycles == 1
        assert result.metrics.consistent_reducers == 20  # C(6,2) over o=4

    def test_all_seq_matrix_two_cycles_for_hybrid(self):
        data = make_dataset(["R1", "R2", "R3"], 20, seed=14)
        result = AllSeqMatrix().run(Q_HYBRID, data, num_partitions=4)
        assert result.metrics.num_cycles == 2

    def test_all_seq_matrix_rejects_multi_attribute(self):
        q = IntervalJoinQuery.parse(
            [("R1.I", "overlaps", "R2.I"), ("R1.A", "=", "R2.A")]
        )
        data = {
            "R1": Relation.of_records("R1", [{"I": Interval(0, 1), "A": 1}]),
            "R2": Relation.of_records("R2", [{"I": Interval(0, 2), "A": 1}]),
        }
        with pytest.raises(PlanningError):
            AllSeqMatrix().run(q, data)
        # ... but GenMatrix accepts it.
        result = GenMatrix().run(q, data, num_partitions=3)
        assert_matches_reference(q, data, result)

    def test_explicit_grid_parts(self):
        data = make_dataset(["R1", "R2", "R3"], 20, seed=15)
        result = AllMatrix(grid_parts=6).run(
            Q_SEQUENCE, data, num_partitions=999
        )
        assert result.metrics.consistent_reducers == 56


class TestHybridBaselines:
    def test_fcts_matches_reference(self):
        data = make_dataset(["R1", "R2", "R3"], 30, seed=16)
        result = FCTS().run(Q_HYBRID, data, num_partitions=4)
        assert_matches_reference(Q_HYBRID, data, result)

    def test_fstc_matches_reference(self):
        data = make_dataset(["R1", "R2", "R3"], 30, seed=17)
        result = FSTC().run(Q_HYBRID, data, num_partitions=4)
        assert_matches_reference(Q_HYBRID, data, result)

    def test_fstc_rejects_pure_colocation(self):
        data = make_dataset(["R1", "R2", "R3"], 5)
        with pytest.raises(PlanningError):
            FSTC().run(Q_COLOCATION, data)

    def test_fstc_rejects_disconnected_sequence_subquery(self):
        # Two sequence islands bridged only by a colocation edge.
        q = IntervalJoinQuery.parse(
            [
                ("R1", "before", "R2"),
                ("R2", "overlaps", "R3"),
                ("R3", "before", "R4"),
            ]
        )
        data = make_dataset(["R1", "R2", "R3", "R4"], 5)
        with pytest.raises(PlanningError):
            FSTC().run(q, data)

    def test_fcts_handles_that_query(self):
        q = IntervalJoinQuery.parse(
            [
                ("R1", "before", "R2"),
                ("R2", "overlaps", "R3"),
                ("R3", "before", "R4"),
            ]
        )
        data = make_dataset(["R1", "R2", "R3", "R4"], 15, seed=44)
        result = FCTS().run(q, data, num_partitions=3)
        assert_matches_reference(q, data, result)

    def test_fcts_counts_component_cycles(self):
        data = make_dataset(["R1", "R2", "R3"], 20, seed=18)
        result = FCTS().run(Q_HYBRID, data, num_partitions=4)
        # RCCIS (2 cycles) for the {R1, R3} component + 1 matrix job.
        assert result.metrics.num_cycles == 3


class TestPASM:
    def test_matches_all_seq_matrix(self):
        data = make_dataset(["R1", "R2", "R3"], 40, seed=19)
        pasm = PASM().run(Q_HYBRID, data, num_partitions=4)
        asm = AllSeqMatrix().run(Q_HYBRID, data, num_partitions=4)
        assert pasm.same_output(asm)

    def test_three_cycles(self):
        data = make_dataset(["R1", "R2", "R3"], 20, seed=20)
        result = PASM().run(Q_HYBRID, data, num_partitions=4)
        assert result.metrics.num_cycles == 3

    def test_pruning_engages_when_component_join_is_selective(self):
        # R3 tiny and short => most R1 rows never appear in the R1-R3
        # colocation join and must be pruned.
        data = {
            "R1": make_dataset(["R1"], 200, seed=21, span=1000)["R1"],
            "R2": make_dataset(["R2"], 50, seed=22, span=1000)["R2"],
            "R3": Relation.of_intervals(
                "R3", [Interval(100, 101), Interval(500, 502)]
            ),
        }
        result = PASM().run(Q_HYBRID, data, num_partitions=8)
        assert result.metrics.pruned_rows > 0
        assert_matches_reference(Q_HYBRID, data, result)

    def test_pruned_grid_ships_fewer_pairs(self):
        data = {
            "R1": make_dataset(["R1"], 300, seed=23, span=2000)["R1"],
            "R2": make_dataset(["R2"], 50, seed=24, span=2000)["R2"],
            "R3": Relation.of_intervals("R3", [Interval(900, 905)]),
        }
        pasm = PASM().run(Q_HYBRID, data, num_partitions=6)
        asm = AllSeqMatrix().run(Q_HYBRID, data, num_partitions=6)
        assert pasm.same_output(asm)
        # The pruned grid cycle ships fewer pairs than ASM's grid cycle
        # even though PASM ran one more cycle overall.
        assert pasm.metrics.pruned_rows > 0


class TestTwoWay:
    def test_rejects_multiway(self):
        data = make_dataset(["R1", "R2", "R3"], 5)
        with pytest.raises(PlanningError):
            TwoWayJoin().run(Q_COLOCATION, data)

    def test_before_replication_counts(self):
        r1 = Relation.of_intervals("R1", [Interval(0, 1)])
        r2 = Relation.of_intervals("R2", [Interval(50, 60)])
        q = IntervalJoinQuery.parse([("R1", "before", "R2")])
        result = TwoWayJoin().run(q, {"R1": r1, "R2": r2}, num_partitions=4)
        assert result.metrics.replicated_intervals == 1
        assert result.metrics.replicated_pairs == 4  # all partitions
        assert len(result) == 1


class TestPartitioningHelpers:
    def test_build_partitioning_covers_all_starts(self):
        data = make_dataset(["R1", "R2", "R3"], 50, seed=25)
        parts = build_partitioning(Q_COLOCATION, data, 8)
        for name in data:
            for row in data[name].rows:
                index = parts.project(row.interval("I"))
                assert 0 <= index < len(parts)

    def test_build_partitioning_empty_data(self):
        q = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        data = {"R1": Relation("R1", []), "R2": Relation("R2", [])}
        parts = build_partitioning(q, data, 4)
        assert len(parts) == 4


class TestRunPausesTheCollector:
    """A run's records and tuples are acyclic and every full collection
    walks all of them again, so ``run`` keeps the cyclic collector off
    and leaves it as it found it."""

    @staticmethod
    def _spy(seen):
        import gc

        class Spy(FCTS):  # runs its components through sub-plans
            def run_plan(self, ctx, collect=True):
                seen.append(gc.isenabled())
                return super().run_plan(ctx, collect)

        return Spy()

    def test_off_inside_the_run_and_back_on_after(self):
        import gc

        seen = []
        data = make_dataset(["R1", "R2", "R3"], 20, seed=26)
        assert gc.isenabled()
        result = self._spy(seen).run(Q_HYBRID, data, num_partitions=4)
        assert seen == [False]
        assert gc.isenabled()
        assert_matches_reference(Q_HYBRID, data, result)

    def test_back_on_after_a_failed_run(self):
        import gc

        data = make_dataset(["R1", "R2", "R3"], 5)
        with pytest.raises(PlanningError):
            RCCIS().run(Q_SEQUENCE, data, num_partitions=4)
        assert gc.isenabled()

    def test_a_collector_found_off_stays_off(self):
        import gc

        seen = []
        data = make_dataset(["R1", "R2", "R3"], 20, seed=26)
        gc.disable()
        try:
            self._spy(seen).run(Q_HYBRID, data, num_partitions=4)
            assert seen == [False] and not gc.isenabled()
        finally:
            gc.enable()
