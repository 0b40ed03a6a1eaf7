"""Shape-regression tests: the reproduction's headline claims, pinned.

EXPERIMENTS.md reports qualitative shapes (who wins, by what factor).
These tests re-assert them at small scale so a regression in any
algorithm's communication behaviour fails CI rather than silently
degrading the tables.
"""

import pytest

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.core.planner import ALGORITHMS
from repro.core.tuning import recommend_shares
from repro.stats import load_balance
from repro.workloads import SyntheticConfig, generate_relation

Q1 = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
Q2 = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)
Q4 = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
)


def synth(name, n, seed, max_len=100, t_max=100_000):
    return generate_relation(
        name,
        SyntheticConfig(
            n=n, t_range=(0, t_max), length_range=(1, max_len), seed=seed
        ),
    )


class TestTable1Shapes:
    """Q1 with the paper's exact length/range parameters."""

    @pytest.fixture(scope="class")
    def results(self):
        data = {
            name: synth(name, 1_500, seed)
            for seed, name in enumerate(("R1", "R2", "R3"))
        }
        return {
            algorithm: execute(
                Q1, data, algorithm=algorithm, num_partitions=16
            )
            for algorithm in ("rccis", "all_replicate", "two_way_cascade")
        }

    def test_all_agree(self, results):
        rccis = results["rccis"]
        assert rccis.same_output(results["all_replicate"])
        assert rccis.same_output(results["two_way_cascade"])

    def test_rccis_replicates_under_5_percent_of_all_rep(self, results):
        rccis = results["rccis"].metrics.replicated_intervals
        allrep = results["all_replicate"].metrics.replicated_intervals
        assert rccis < 0.05 * allrep

    def test_rccis_pairs_per_input_near_two(self, results):
        # The paper's structural ratio: split cycle + route cycle ≈ 2.07x.
        pairs = results["rccis"].metrics.shuffled_records
        inputs = 3 * 1_500
        assert 1.9 <= pairs / inputs <= 2.4

    def test_all_rep_ships_most(self, results):
        assert (
            results["all_replicate"].metrics.shuffled_records
            > results["rccis"].metrics.shuffled_records
        )


class TestFigure4Shape:
    def test_all_matrix_balances_better_than_all_rep(self):
        data = {
            name: synth(name, 400, seed, max_len=100, t_max=1_000)
            for seed, name in enumerate(("R1", "R2"))
        }
        q = IntervalJoinQuery.parse([("R1", "before", "R2")])
        allrep = execute(q, data, algorithm="all_replicate", num_partitions=6)
        matrix = execute(
            q, data, algorithm=ALGORITHMS["all_matrix"](grid_parts=3),
            num_partitions=3,
        )
        assert allrep.same_output(matrix)
        rep_balance = load_balance(allrep.metrics.reducer_loads)
        mat_balance = load_balance(matrix.metrics.reducer_loads)
        assert mat_balance.fairness > rep_balance.fairness
        assert mat_balance.imbalance < rep_balance.imbalance
        # All-Rep's loads climb monotonically toward the right-most
        # reducer (the paper's Figure 4 picture).
        loads = [
            load
            for _, load in sorted(allrep.metrics.reducer_loads.items())
        ]
        assert loads == sorted(loads)


class TestFigure5Shape:
    def test_all_matrix_ships_least(self):
        data = {
            name: synth(name, 80, seed, max_len=100, t_max=1_000)
            for seed, name in enumerate(("R1", "R2", "R3"))
        }
        matrix = execute(
            Q2, data, algorithm=ALGORITHMS["all_matrix"](grid_parts=6),
            num_partitions=6,
        )
        allrep = execute(Q2, data, algorithm="all_replicate", num_partitions=36)
        assert matrix.same_output(allrep)
        assert (
            matrix.metrics.shuffled_records
            < allrep.metrics.shuffled_records
        )

    def test_paper_grid_counts(self):
        data = {
            name: synth(name, 30, seed, max_len=100, t_max=1_000)
            for seed, name in enumerate(("R1", "R2", "R3"))
        }
        result = execute(
            Q2, data, algorithm=ALGORITHMS["all_matrix"](grid_parts=6),
            num_partitions=6,
        )
        assert result.metrics.consistent_reducers == 56  # paper says 55
        assert result.metrics.total_reducers == 216


class TestTable3Shape:
    def test_pasm_ships_less_than_asm(self):
        data = {
            "R1": synth("R1", 2_000, 1, max_len=1_000, t_max=200_000),
            "R2": synth("R2", 60, 2, max_len=1_000, t_max=200_000),
            "R3": synth("R3", 50, 3, max_len=600, t_max=200_000),
        }
        asm = execute(
            Q4, data, algorithm=ALGORITHMS["all_seq_matrix"](grid_parts=6),
            num_partitions=6,
        )
        pasm = execute(
            Q4, data, algorithm=ALGORITHMS["pasm"](grid_parts=6),
            num_partitions=6,
        )
        assert pasm.same_output(asm)
        assert pasm.metrics.pruned_rows > 0
        assert pasm.metrics.shuffled_records < asm.metrics.shuffled_records


class TestTable4Shape:
    def test_q5_consistent_reducers_exact(self):
        import random

        from repro.core.schema import Relation, Row
        from repro.intervals.interval import Interval

        rng = random.Random(5)

        def rel(name, n, attrs):
            rows = []
            for rid in range(n):
                start = rng.uniform(0, 1_000)
                values = {"I": Interval(start, start + rng.uniform(1, 50))}
                for attr in attrs:
                    values[attr] = float(rng.randint(0, 3))
                rows.append(Row.make(rid, values))
            return Relation(name, rows)

        q5 = IntervalJoinQuery.parse(
            [
                ("R1.I", "before", "R2.I"),
                ("R1.I", "overlaps", "R3.I"),
                ("R1.A", "=", "R3.A"),
                ("R2.B", "=", "R3.B"),
            ]
        )
        data = {
            "R1": rel("R1", 30, ["A"]),
            "R2": rel("R2", 30, ["B"]),
            "R3": rel("R3", 30, ["A", "B"]),
        }
        result = execute(
            q5, data, algorithm=ALGORITHMS["gen_matrix"](grid_parts=5),
            num_partitions=5,
        )
        assert result.metrics.consistent_reducers == 375
        assert result.metrics.total_reducers == 625


class TestAblationShapes:
    """The two ablation claims of EXPERIMENTS.md (A2, A3), at the sizes
    of the first row of their tables."""

    def test_equi_depth_improves_balance_under_zipf(self):
        data = {
            name: generate_relation(
                name,
                SyntheticConfig(
                    n=1_000, start_dist="zipf", t_range=(0, 100_000),
                    length_range=(1, 150), seed=seed,
                ),
            )
            for seed, name in enumerate(("R1", "R2", "R3"))
        }
        width, depth = (
            execute(
                Q1, data, algorithm="rccis", num_partitions=16,
                partition_strategy=strategy,
            )
            for strategy in ("uniform", "equi_depth")
        )
        assert width.same_output(depth)
        assert (
            load_balance(depth.metrics.reducer_loads).imbalance
            < load_balance(width.metrics.reducer_loads).imbalance
        )

    def test_shares_reduce_communication(self):
        data = {
            name: synth(name, n, seed, max_len=800)
            for seed, (name, n) in enumerate(
                (("R1", 1_000), ("R2", 20), ("R3", 40))
            )
        }
        shares = recommend_shares(Q4, data, cell_budget=36).shares
        tuned, uniform = (
            execute(
                Q4, data, num_partitions=6,
                algorithm=ALGORITHMS["all_seq_matrix"](grid_parts=grid),
            )
            for grid in (shares, 6)
        )
        assert tuned.same_output(uniform)
        assert (
            tuned.metrics.shuffled_records < uniform.metrics.shuffled_records
        )
