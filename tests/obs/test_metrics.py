"""MetricsRegistry: types, serialisation, exposition goldens.

The golden files pin the full Prometheus text exposition of a small
RCCIS run and a small All-Matrix run (deterministic ``run`` + ``faults``
groups only — wall-clock families are excluded by construction).  When
an intentional change shifts the numbers, regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src:. python -m pytest \
        tests/obs/test_metrics.py -q
"""

from __future__ import annotations

import os

import pytest

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.obs import (
    Counter,
    Histogram,
    MetricError,
    MetricsRegistry,
    Span,
    TraceRecorder,
    fold_spans,
)
from repro.obs.metrics import FAMILIES, GROUP_RUN, GROUP_WALL, _family

from tests.conftest import make_dataset

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total", "help", ("job",), GROUP_RUN)
        counter.inc(job="a")
        counter.inc(2, job="a")
        counter.inc(5, job="b")
        assert counter.value(job="a") == 3
        assert counter.value(job="b") == 5

    def test_negative_increment_rejected(self):
        counter = Counter("c_total", "help", (), GROUP_RUN)
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_label_mismatch_rejected(self):
        counter = Counter("c_total", "help", ("job",), GROUP_RUN)
        with pytest.raises(MetricError):
            counter.inc(task="x")


class TestHistogram:
    def test_bucketing_and_quantiles(self):
        registry = MetricsRegistry()
        histogram = Histogram("h", "help", (), GROUP_RUN, (1.0, 10.0, 100.0))
        registry._metrics["h"] = histogram
        for value in (0.5, 5, 5, 50, 500):
            histogram.observe(value)
        state = histogram.state()
        assert state["counts"] == [1, 2, 1, 1]
        assert state["count"] == 5
        assert "count=5 sum=560.5 p50<=10 p95<=+Inf" in registry.summary()

    def test_summary_quantile_past_the_last_bucket_is_inf(self):
        """A p95 observation above the last bucket has no finite upper
        bound: the summary says ``+Inf``, not the mean of everything."""
        registry = MetricsRegistry()
        histogram = _family(registry, "repro_reduce_task_load")
        for load in (10, 10, 10, 60_000):
            histogram.observe(load, job="j")
        line = registry.summary().splitlines()[1]
        assert line.endswith("p50<=10 p95<=+Inf"), line

    def test_family_buckets_strictly_increasing(self):
        """``observe`` bisects the boundaries, so every histogram row
        needs non-empty, strictly increasing buckets; a counter row has
        none."""
        for name, row in FAMILIES.items():
            kind, buckets = row[0], row[4:]
            if kind == "histogram":
                (bounds,) = buckets
                assert bounds, name
                assert all(a < b for a, b in zip(bounds, bounds[1:])), name
            else:
                assert kind == "counter" and not buckets, name

    def test_family_built_once_per_registry(self):
        """A row is built on first use and handed back unchanged after,
        with the row's type, labels and group."""
        registry = MetricsRegistry()
        for name, (kind, labels, group, *_) in FAMILIES.items():
            metric = _family(registry, name)
            assert _family(registry, name) is metric
            assert metric.kind == kind
            assert metric.label_names == labels
            assert metric.group == group
        assert [m.name for m in registry.families()] == sorted(FAMILIES)


def _span(kind, name, span_id, duration=0.25, **attributes):
    return Span(
        name=name, kind=kind, span_id=span_id, parent_id=None,
        start=0.0, end=duration, attributes=attributes,
    )


class TestMergeAndSerialisation:
    def _populated(self):
        return fold_spans(
            [
                _span("phase", "map", 1, job="j"),
                _span("job", "j", 2, job="j", shuffled_records=10,
                      key_loads=[["'k'", 4], ["'m'", 6]]),
            ]
        )

    def test_fingerprint_excludes_groups(self):
        registry = self._populated()
        for name in ("repro_phase_wall_seconds", "repro_job_wall_seconds"):
            assert name not in registry.fingerprint()
            assert name in registry.fingerprint(exclude_groups=())

    def test_summary_mentions_every_family(self):
        text = self._populated().summary()
        for family in (
            "repro_shuffle_records_total", "repro_key_load",
            "repro_phase_wall_seconds", "repro_job_wall_seconds",
        ):
            assert family in text

    def test_a_span_without_its_attributes_folds_nothing_for_them(self):
        """A failed job's span has no ``shuffled_records``, and a task
        span may lack what the fold reads: nothing raises, and only the
        facts that are there are folded."""
        registry = fold_spans(
            [
                _span("job", "j", 1, job="j"),
                _span("task", "map:R1", 2, job="j", phase="map"),
                _span("task", "reduce[0]", 3, job="j", phase="reduce"),
                _span("attempt", "reduce[0]", 4, job="j", phase="reduce"),
            ]
        )
        assert {metric.name for metric in registry.families()} == {
            "repro_job_wall_seconds", "repro_reduce_records_total",
            "repro_reduce_task_load",
        }


# ---------------------------------------------------------------- goldens
RCCIS = (
    "rccis",
    IntervalJoinQuery.parse(
        [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
    ),
    ("R1", "R2", "R3"),
)
ALL_MATRIX = (
    "all_matrix",
    IntervalJoinQuery.parse(
        [("R1", "before", "R2"), ("R2", "before", "R3")]
    ),
    ("R1", "R2", "R3"),
)


def _traced_run(algorithm, query, relations, *sinks) -> TraceRecorder:
    recorder = TraceRecorder(*sinks)
    execute(
        query,
        make_dataset(relations, 40, seed=11),
        algorithm=algorithm,
        num_partitions=4,
        observer=recorder,
        # The golden files pin a fault-free run (the "faults" group they
        # include varies with injected failures by design).
        faults=False,
    )
    recorder.close()
    return recorder


def _without_wall(exposition: str, registry: MetricsRegistry) -> str:
    """The exposition minus the wall-clock families."""
    wall = tuple(
        metric.name
        for metric in registry.families()
        if metric.group == GROUP_WALL
    )
    return "".join(
        line
        for line in exposition.splitlines(keepends=True)
        if not line.removeprefix("# HELP ")
        .removeprefix("# TYPE ")
        .startswith(wall)
    )


def _deterministic_exposition(algorithm, query, relations) -> str:
    recorder = _traced_run(algorithm, query, relations)
    # The registry the run built, minus the wall-clock families.
    return _without_wall(recorder.metrics.to_prometheus(), recorder.metrics)


def _golden(algorithm) -> str:
    path = os.path.join(GOLDEN_DIR, f"{algorithm}_metrics.prom")
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize(
    "case", [RCCIS, ALL_MATRIX], ids=[RCCIS[0], ALL_MATRIX[0]]
)
def test_prometheus_exposition_golden(case):
    algorithm, query, relations = case
    exposition = _deterministic_exposition(algorithm, query, relations)
    path = os.path.join(GOLDEN_DIR, f"{algorithm}_metrics.prom")
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(exposition)
    assert exposition == _golden(algorithm)


@pytest.mark.parametrize(
    "case", [RCCIS, ALL_MATRIX], ids=[RCCIS[0], ALL_MATRIX[0]]
)
def test_report_metrics_out_matches_golden(case, tmp_path):
    """``repro report T --metrics-out x.prom`` over the golden run's
    trace writes the golden exposition: the trace alone carries it."""
    from repro.cli import main
    from repro.obs import JsonlSink, load_spans_jsonl

    algorithm, query, relations = case
    trace, prom = tmp_path / "t.jsonl", tmp_path / "x.prom"
    _traced_run(algorithm, query, relations, JsonlSink(str(trace)))
    assert main(["report", str(trace), "--metrics-out", str(prom)]) == 0
    registry = fold_spans(load_spans_jsonl(str(trace))[0])
    assert _without_wall(prom.read_text(), registry) == _golden(algorithm)
