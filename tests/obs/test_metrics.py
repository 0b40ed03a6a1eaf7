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
        histogram = MetricsRegistry().histogram(
            "h", buckets=(1.0, 10.0, 100.0)
        )
        for value in (0.5, 5, 5, 50, 500):
            histogram.observe(value)
        state = histogram.state()
        assert state["counts"] == [1, 2, 1, 1]
        assert state["count"] == 5
        assert histogram.quantile(0.5) == 10.0

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


def _deterministic_exposition(algorithm, query, relations) -> str:
    recorder = TraceRecorder()
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
    # The registry the run built, minus the wall-clock families.
    wall = tuple(
        metric.name
        for metric in recorder.metrics.families()
        if metric.group == GROUP_WALL
    )
    exposition = recorder.metrics.to_prometheus()
    return "".join(
        line
        for line in exposition.splitlines(keepends=True)
        if not line.removeprefix("# HELP ")
        .removeprefix("# TYPE ")
        .startswith(wall)
    )


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
    with open(path, "r", encoding="utf-8") as handle:
        assert exposition == handle.read()
