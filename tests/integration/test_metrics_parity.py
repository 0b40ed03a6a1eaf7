"""Metrics parity: the ``run`` group is executor- and chaos-invariant.

The contract stated in :mod:`repro.obs.metrics`: every metric in the
``run`` group is a deterministic fact of the computation, so its samples
must be bit-identical whether the simulator executed serially, on
threads, or on worker processes — and a chaos run under the pinned
fault plan of :mod:`tests.integration.test_fault_parity` must produce
the same ``run``-group fingerprint as a fault-free run (retries replay
work; only the ``faults`` and ``wall`` groups may differ).

And the registry is nothing but a fold over the span stream: a run
written through a :class:`JsonlSink`, reloaded and folded again gives
the live registry back sample for sample — every group, with live
telemetry and the profiler attached or not (neither writes a metric).
"""

from __future__ import annotations

import pytest

from repro.core.executor import execute
from repro.obs import JsonlSink, TraceRecorder, fold_spans, load_spans_jsonl
from repro.obs.metrics import GROUP_FAULTS, GROUP_WALL

from tests.conftest import dataset_for
from tests.integration.test_fault_parity import CASE_IDS, CASES, pinned_plan

EXECUTORS = ("serial", "threads", "processes")


def _metrics_of(
    algorithm, query, relations, executor, faults=False, sinks=(), **observing
):
    recorder = TraceRecorder(*sinks, **observing)
    execute(
        query,
        dataset_for(query, 60, seed=11),
        algorithm=algorithm,
        num_partitions=5,
        executor=executor,
        workers=2,
        observer=recorder,
        faults=faults,
        max_attempts=3 if faults else 1,
    )
    recorder.close()
    return recorder.metrics


@pytest.mark.parametrize(
    "algorithm,query,relations",
    CASES,
    ids=CASE_IDS,
)
class TestMetricsParity:
    def test_identical_across_executors(self, algorithm, query, relations):
        fingerprints = [
            _metrics_of(algorithm, query, relations, executor).fingerprint(
                exclude_groups=(GROUP_WALL,)
            )
            for executor in EXECUTORS
        ]
        assert fingerprints[0], "run must record metrics"
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    def test_chaos_invariant_modulo_faults(self, algorithm, query, relations):
        clean = _metrics_of(algorithm, query, relations, "serial")
        chaos = _metrics_of(
            algorithm, query, relations, "serial", faults=pinned_plan()
        )
        exclude = (GROUP_WALL, GROUP_FAULTS)
        assert chaos.fingerprint(exclude) == clean.fingerprint(exclude)
        # The chaos run really did retry — visible in the faults group.
        faults_only = {
            name: samples
            for name, samples in chaos.fingerprint(
                exclude_groups=(GROUP_WALL,)
            ).items()
            if name not in chaos.fingerprint(exclude)
        }
        assert any(samples for samples in faults_only.values())

    @pytest.mark.parametrize(
        "executor,faults,observing",
        [
            ("serial", False, {}),
            ("serial", True, {}),
            ("processes", False, {"profile": True, "live": True}),
        ],
        ids=["clean", "chaos", "profiled-processes"],
    )
    def test_replayed_trace_equals_live_registry(
        self, algorithm, query, relations, executor, faults, observing,
        tmp_path,
    ):
        trace = str(tmp_path / "trace.jsonl")
        live = _metrics_of(
            algorithm, query, relations, executor,
            faults=pinned_plan() if faults else False,
            sinks=[JsonlSink(trace)], **observing,
        )
        replayed = fold_spans(load_spans_jsonl(trace)[0])
        assert replayed.as_dict() == live.as_dict()
        groups = {entry["group"] for entry in live.as_dict().values()}
        assert groups == {"run", "wall", "faults"}
