"""EXPLAIN rendering, plan reconciliation, and the cost-model gate.

Covers the whole predicted-vs-actual observability chain: the EXPLAIN
text per query class (including the Allen path-consistency emptiness
proof with its predicate cycle), the ``plan``/``reconciliation`` spans
the executor records, the span-trace
rebuild (``repro report``), the dashboard's Plan panel, the CLI
surfaces, the per-algorithm pin of prediction errors against
``benchmarks/model_error_baseline.json``, and chaos parity — a
fault-injected run must produce bit-identical predictions and
reconciliations.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

from repro.cli import main
from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.intervals.allen import get_predicate
from repro.intervals.sweep import WINDOW_NAMES, window_kind
from repro.io import save_relation
from repro.obs import (
    JsonlSink,
    PlanReconciliation,
    RunReport,
    TraceRecorder,
    explain_query,
    load_spans_jsonl,
    reconciliation_from_spans,
    render_dashboard,
)
from repro.obs.explain import relative_error
from repro.obs.metrics import GROUP_FAULTS, GROUP_WALL
from repro.workloads import SyntheticConfig, generate_relation

_BENCHMARKS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "benchmarks"
)


def _check_model_error():
    """The committed cost-model gate, imported as a module."""
    sys.path.insert(0, _BENCHMARKS_DIR)
    try:
        return importlib.import_module("check_model_error")
    finally:
        sys.path.remove(_BENCHMARKS_DIR)


def make_data(relations, n=60, t_range=(0, 10_000), length_range=(1, 400)):
    return {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=n, t_range=t_range, length_range=length_range, seed=index
            ),
        )
        for index, name in enumerate(relations)
    }


HYBRID = [("R1", "overlaps", "R2"), ("R2", "before", "R3")]

GENERAL = [("A.I", "overlaps", "B.I"), ("A.x", "=", "B.x")]


def make_general_data(n=40, seed=0):
    """Relations with an interval ``I`` plus an equality attribute ``x``."""
    import random

    from repro.core.schema import Relation, Row
    from repro.intervals.interval import Interval

    rng = random.Random(seed)
    data = {}
    for name in ("A", "B"):
        rows = []
        for rid in range(n):
            start = rng.uniform(0, 500)
            rows.append(
                Row.make(
                    rid,
                    {
                        "I": Interval(start, start + rng.uniform(1, 20)),
                        "x": float(rng.randint(0, 5)),
                    },
                )
            )
        data[name] = Relation(name, rows)
    return data


class TestRelativeError:
    def test_equal_is_zero(self):
        assert relative_error(5.0, 5.0) == 0.0
        assert relative_error(0.0, 0.0) == 0.0

    def test_signed(self):
        assert relative_error(150.0, 100.0) == pytest.approx(0.5)
        assert relative_error(50.0, 100.0) == pytest.approx(-0.5)

    def test_observed_zero_uses_absolute_floor(self):
        assert relative_error(3.0, 0.0) == pytest.approx(3.0)


class TestExplainRender:
    @pytest.mark.parametrize(
        "conditions,klass,algorithm",
        [
            ([("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
             "COLOCATION", "rccis"),
            ([("R1", "before", "R2"), ("R2", "before", "R3")],
             "SEQUENCE", "all_matrix"),
            (HYBRID, "HYBRID", "all_seq_matrix"),
            (GENERAL, "GENERAL", "gen_matrix"),
        ],
    )
    def test_every_query_class_renders(self, conditions, klass, algorithm):
        query = IntervalJoinQuery.parse(conditions)
        if conditions is GENERAL:
            data = make_general_data()
        else:
            data = make_data(query.relations)
        explained = explain_query(query, data)
        text = explained.render()
        assert f"class:       {klass}" in text
        assert explained.algorithm == algorithm
        assert "[chosen by planner]" in text
        assert "rejected alternatives:" in text
        assert "predicted:" in text
        assert "replication_factor" in text
        # every non-chosen registered algorithm gets a rejection reason
        assert len(explained.alternatives) == 9

    def test_prediction_unavailable_without_data(self):
        explained = explain_query(IntervalJoinQuery.parse(HYBRID))
        assert explained.prediction is None
        assert "prediction:  unavailable" in explained.render()

    def test_override_renders_planner_choice(self):
        query = IntervalJoinQuery.parse(HYBRID)
        explained = explain_query(
            query, make_data(query.relations), algorithm="fcts"
        )
        assert explained.chosen_by == "override"
        assert "[chosen by override]" in explained.render()
        assert "planner would pick all_seq_matrix" in explained.reason

    def test_prune_prefers_pasm(self):
        query = IntervalJoinQuery.parse(HYBRID)
        explained = explain_query(
            query, make_data(query.relations), prune=True
        )
        assert explained.algorithm == "pasm"

    def test_exact_tier_in_render(self):
        query = IntervalJoinQuery.parse(HYBRID)
        data = make_data(query.relations, n=40)
        explained = explain_query(query, data, exact=True)
        assert explained.prediction.tier == "exact"
        assert "exact prediction" in explained.render()

    @pytest.mark.parametrize("name", ["overlaps", "before", "after", "contains"])
    def test_kernels_describe_the_windows_and_the_mask(self, name):
        """What runs, read off the pair kernel's own rule — a colocation
        predicate, a sequence one and two converses."""
        query = IntervalJoinQuery.parse([("R1", name, "R2")])
        kind = window_kind(get_predicate(name))
        assert explain_query(query).kernels == (
            (f"R1.I {name} R2.I", f"{WINDOW_NAMES[kind]} windows, {name} mask"),
        )

    def test_kernels_name_no_function_the_plan_never_calls(self):
        text = explain_query(IntervalJoinQuery.parse(HYBRID)).render()
        assert "R1.I overlaps R2.I -> intersecting windows, overlaps mask" in text
        assert "R2.I before R3.I -> starting-after windows, before mask" in text
        assert "sweep kernel" not in text

    def test_as_dict_is_json_serialisable(self):
        query = IntervalJoinQuery.parse(HYBRID)
        explained = explain_query(query, make_data(query.relations))
        payload = json.loads(json.dumps(explained.as_dict()))
        assert payload["algorithm"] == "all_seq_matrix"
        assert payload["prediction"]["quantities"]["num_cycles"] == 2


class TestEmptinessProof:
    def test_order_cycle_proof_names_the_predicate_cycle(self):
        query = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R2", "before", "R3"),
             ("R3", "before", "R1")]
        )
        explained = explain_query(query, make_data(query.relations))
        assert explained.provably_empty
        text = explained.render()
        assert "answer empty without running jobs" in text
        assert "predicate cycle:" in text
        assert "R1.I before R2.I" in text
        assert "R3.I before R1.I" in text

    def test_opposite_orders_proof_names_both_conditions(self):
        query = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R2", "before", "R1")]
        )
        explained = explain_query(query, make_data(query.relations))
        assert explained.provably_empty
        assert "R1.I before R2.I" in explained.empty_proof
        assert "R2.I before R1.I" in explained.empty_proof

    def test_empty_proof_recorded_on_query_span(self):
        query = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R2", "before", "R1")]
        )
        recorder = TraceRecorder()
        result = execute(
            query, make_data(query.relations), observer=recorder
        )
        assert len(result) == 0
        (span,) = [s for s in recorder.spans if s.kind == "query"]
        assert span.attributes["planner_empty"] is True
        assert "the query output is empty" in span.attributes["empty_proof"]


class TestReconciliationSpans:
    def _observed_run(self, faults=None):
        query = IntervalJoinQuery.parse(HYBRID)
        recorder = TraceRecorder()
        execute(
            query,
            make_data(query.relations),
            num_partitions=4,
            observer=recorder,
            faults=faults,
        )
        return recorder

    def test_plan_and_reconciliation_spans_recorded(self):
        recorder = self._observed_run()
        (plan_span,) = [s for s in recorder.spans if s.kind == "plan"]
        assert plan_span.attributes["algorithm"] == "all_seq_matrix"
        assert plan_span.attributes["tier"] == "analytic"
        assert plan_span.attributes["quantities"]["num_cycles"] == 2
        (rec_span,) = [
            s for s in recorder.spans if s.kind == "reconciliation"
        ]
        assert rec_span.attributes["rows"]
        rebuilt = PlanReconciliation.from_dict(rec_span.attributes)
        assert rebuilt.row("num_cycles").error == 0.0

    def test_reconciliation_survives_jsonl_roundtrip(self, tmp_path):
        query = IntervalJoinQuery.parse(HYBRID)
        trace = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(JsonlSink(str(trace)))
        execute(
            query,
            make_data(query.relations),
            num_partitions=4,
            observer=recorder,
        )
        live = reconciliation_from_spans(recorder.spans)
        recorder.close()
        reloaded = reconciliation_from_spans(load_spans_jsonl(str(trace)))
        assert [r.as_dict() for r in reloaded] == [
            r.as_dict() for r in live
        ]
        assert len(reloaded) == 1

    def test_run_report_carries_reconciliation(self):
        recorder = self._observed_run()
        report = RunReport.from_spans(recorder.spans)
        assert len(report.reconciliations) == 1
        assert "plan reconciliation — all_seq_matrix" in report.render()

    def test_dashboard_plan_panel_from_spans(self):
        recorder = self._observed_run()
        page = render_dashboard(recorder.spans, recorder.metrics)
        assert "Plan &#183; predicted vs observed" in page
        assert "shuffled_records" in page

    def test_chaos_run_reconciles_identically(self):
        baseline = self._observed_run(faults=None)
        chaotic = self._observed_run(faults="2014")
        plan = lambda rec: [  # noqa: E731
            s.attributes["quantities"]
            for s in rec.spans
            if s.kind == "plan"
        ]
        assert plan(chaotic) == plan(baseline)
        assert [
            r.as_dict() for r in reconciliation_from_spans(chaotic.spans)
        ] == [r.as_dict() for r in reconciliation_from_spans(baseline.spans)]
        exclude = (GROUP_WALL, GROUP_FAULTS)
        assert chaotic.metrics.fingerprint(
            exclude_groups=exclude
        ) == baseline.metrics.fingerprint(exclude_groups=exclude)


class TestModelErrorBaseline:
    """Every algorithm's prediction error stays pinned to the baseline."""

    gate = _check_model_error()

    @pytest.fixture(scope="class")
    def baseline(self):
        with open(self.gate.BASELINE_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)["errors"]

    @pytest.mark.parametrize(
        "algorithm",
        sorted(
            (
                "two_way", "two_way_cascade", "all_replicate", "rccis",
                "all_matrix", "all_seq_matrix", "pasm", "gen_matrix",
                "fcts", "fstc",
            )
        ),
    )
    def test_error_pinned_under_baseline(self, baseline, algorithm):
        fresh = self.gate.algorithm_errors(algorithm)
        for quantity in ("replication_factor", "shuffled_records"):
            assert abs(
                fresh[quantity] - baseline[algorithm][quantity]
            ) <= self.gate.DEFAULT_TOLERANCE, (
                f"{algorithm}.{quantity} drifted from the committed "
                f"model_error_baseline.json"
            )


class TestCli:
    @pytest.fixture
    def relation_files(self, tmp_path):
        paths = {}
        for index, name in enumerate(("R1", "R2", "R3")):
            relation = generate_relation(
                name,
                SyntheticConfig(
                    n=80, t_range=(0, 5_000), length_range=(1, 100),
                    seed=index,
                ),
            )
            path = tmp_path / f"{name.lower()}.jsonl"
            save_relation(relation, str(path))
            paths[name] = str(path)
        return paths

    def _bindings(self, files, names=("R1", "R2", "R3")):
        out = []
        for name in names:
            out.extend(["--relation", f"{name}={files[name]}"])
        return out

    def test_explain_subcommand(self, relation_files, capsys):
        exit_code = main(
            ["explain"]
            + self._bindings(relation_files)
            + ["--condition", "R1 overlaps R2",
               "--condition", "R2 before R3"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "class:       HYBRID" in out
        assert "rejected alternatives:" in out
        assert "replication_factor" in out

    def test_explain_subcommand_without_data(self, capsys):
        exit_code = main(["explain", "--condition", "R1 overlaps R2"])
        assert exit_code == 0
        assert "prediction:  unavailable" in capsys.readouterr().out

    def test_explain_subcommand_json(self, relation_files, capsys):
        exit_code = main(
            ["explain"]
            + self._bindings(relation_files, ("R1", "R2"))
            + ["--condition", "R1 overlaps R2", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "two_way"
        assert payload["prediction"]["tier"] == "analytic"

    def test_explain_subcommand_prints_emptiness_proof(self, capsys):
        exit_code = main(
            ["explain",
             "--condition", "R1 before R2",
             "--condition", "R2 before R1"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "answer empty without running jobs" in out
        assert "opposite orders" in out
        assert "R1.I before R2.I" in out

    @pytest.mark.parametrize(
        "algorithm",
        ["two_way", "two_way_cascade", "all_replicate", "rccis",
         "all_matrix", "all_seq_matrix", "pasm", "gen_matrix", "fcts",
         "fstc"],
    )
    def test_explain_subcommand_all_algorithms(
        self, relation_files, capsys, algorithm
    ):
        conditions = {
            "two_way": ["--condition", "R1 overlaps R2"],
            "all_replicate": ["--condition", "R1 overlaps R2",
                              "--condition", "R2 overlaps R3"],
            "rccis": ["--condition", "R1 overlaps R2",
                      "--condition", "R2 overlaps R3"],
            "all_matrix": ["--condition", "R1 before R2",
                           "--condition", "R2 before R3"],
        }.get(algorithm, ["--condition", "R1 overlaps R2",
                          "--condition", "R2 before R3"])
        exit_code = main(
            ["explain"]
            + self._bindings(relation_files)
            + conditions
            + ["--algorithm", algorithm]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert f"-> {algorithm}" in out
        assert "physical plan:" in out

    def test_run_explain_prints_plan_and_reconciliation(
        self, relation_files, capsys
    ):
        exit_code = main(
            ["run"]
            + self._bindings(relation_files, ("R1", "R2"))
            + ["--condition", "R1 before R2", "--explain",
               "--partitions", "4"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "plan reconciliation — two_way" in out
        assert "tuples:" in out  # the run still happened

    def test_report_rebuilds_reconciliation_from_trace(
        self, relation_files, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        assert (
            main(
                ["run"]
                + self._bindings(relation_files, ("R1", "R2"))
                + ["--condition", "R1 overlaps R2",
                   "--partitions", "4",
                   "--trace", str(trace)]
            )
            == 0
        )
        capsys.readouterr()
        html = tmp_path / "d.html"
        exit_code = main(["report", str(trace), "--html", str(html)])
        assert exit_code == 0
        assert "plan reconciliation — two_way" in capsys.readouterr().out
        assert "Plan &#183; predicted vs observed" in html.read_text()
