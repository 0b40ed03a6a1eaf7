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
from repro.obs import MetricError, MetricsRegistry, TraceRecorder
from repro.obs.metrics import GROUP_WALL, LOAD_BUCKETS

from tests.conftest import make_dataset

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", labels=("job",))
        counter.inc(job="a")
        counter.inc(2, job="a")
        counter.inc(5, job="b")
        assert counter.value(job="a") == 3
        assert counter.value(job="b") == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_label_mismatch_rejected(self):
        counter = MetricsRegistry().counter("c_total", labels=("job",))
        with pytest.raises(MetricError):
            counter.inc(task="x")


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g", labels=("k",))
        gauge.set(1.5, k="x")
        gauge.set(2.5, k="x")
        assert gauge.value(k="x") == 2.5
        assert gauge.value(k="missing") is None


class TestHistogram:
    def test_bucketing_and_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 10.0, 100.0))
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
        histogram = registry.histogram("repro_reduce_task_load", labels=("job",))
        for load in (10, 10, 10, 60_000):
            histogram.observe(load, job="j")
        line = registry.summary().splitlines()[1]
        assert line.endswith("p50<=10 p95<=+Inf"), line

    def test_registration_signature_checked(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        registry.histogram("h", buckets=(1.0, 2.0))  # idempotent
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(MetricError):
            registry.counter("h")

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))


class TestMergeAndSerialisation:
    def _populated(self, scale=1):
        registry = MetricsRegistry()
        registry.counter("records_total", "r", labels=("job",)).inc(
            10 * scale, job="j"
        )
        registry.gauge("factor", "f").set(1.5 * scale)
        histogram = registry.histogram("load", "l", buckets=LOAD_BUCKETS)
        for value in range(scale * 3):
            histogram.observe(value)
        return registry

    def test_fingerprint_excludes_groups(self):
        registry = self._populated()
        registry.counter("wall_thing", group=GROUP_WALL).inc(123)
        assert "wall_thing" not in registry.fingerprint()
        assert "wall_thing" in registry.fingerprint(exclude_groups=())

    def test_summary_mentions_every_family(self):
        text = self._populated().summary()
        for family in ("records_total", "factor", "load"):
            assert family in text


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
    from repro.obs import JsonlSink, fold_spans, load_spans_jsonl

    algorithm, query, relations = case
    trace, prom = tmp_path / "t.jsonl", tmp_path / "x.prom"
    _traced_run(algorithm, query, relations, JsonlSink(str(trace)))
    assert main(["report", str(trace), "--metrics-out", str(prom)]) == 0
    registry, _ = fold_spans(load_spans_jsonl(str(trace)))
    assert _without_wall(prom.read_text(), registry) == _golden(algorithm)
