"""Unit tests of the live-telemetry building blocks.

End-to-end passivity/parity is pinned by
``tests/integration/test_live_parity.py``; these tests exercise the hub,
the switch, the ETA model, the HTTP endpoint and the terminal
rendering in isolation.  The hub is a sink of the span stream and
nothing else, so the tests feed it ``job`` / ``phase`` / ``task`` /
``plan`` spans (``_open`` / ``_close`` / ``_plan``) the way a recorder
would.
"""

from __future__ import annotations

import io
import json
from urllib.request import urlopen

import pytest

from repro.obs import (
    MetricsRegistry,
    ProgressPrinter,
    Span,
    StatusServer,
    TelemetryHub,
    TraceRecorder,
    render_progress_line,
)
from repro.obs.metrics import GROUP_LIVE


def _open(hub, kind, name, **attributes) -> Span:
    """A span of the run opens: what the recorder tells its sinks."""
    span = Span(
        name=name, kind=kind, span_id=0, parent_id=None, start=0.0,
        attributes=attributes,
    )
    hub.opened(span)
    return span


def _close(hub, span, kind=None) -> None:
    """...and closes — a task span possibly as a losing ``attempt``."""
    if kind is not None:
        span.kind = kind
    span.end = span.start + 1.0
    hub.emit(span)


def _task(hub, job, phase, index, kind="task") -> None:
    """One attempt of one task, opened and closed as ``kind``."""
    _close(
        hub,
        _open(hub, "task", f"{phase}[{index}]", job=job, phase=phase,
              task_index=index),
        kind,
    )


def _plan(hub, cycles, modelled_seconds=0.0) -> None:
    """The executor's ``plan`` span, as the hub receives it closed."""
    _close(
        hub,
        _open(
            hub, "plan", "plan:a", algorithm="a",
            prediction={
                "cycles": cycles,
                "quantities": {"modelled_seconds": modelled_seconds},
            },
        ),
    )


def _hub(**switch):
    """The hub a recorder built with ``switch`` attaches, or ``None``."""
    recorder = TraceRecorder(**switch)
    recorder.close()
    return recorder.live


class TestResolveLive:
    """Live telemetry is on exactly when the recorder is asked for it
    (``--progress`` / ``--serve-status`` on the CLI); ``$REPRO_LIVE`` is
    not a switch — only the run options read the environment."""

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE", "1")
        assert _hub(live=False) is None
        assert isinstance(_hub(live=True), TelemetryHub)
        monkeypatch.delenv("REPRO_LIVE")
        assert isinstance(_hub(live=True), TelemetryHub)

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_falsey_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_LIVE", value)
        assert _hub() is None

    def test_truthy_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE", "1")
        assert _hub() is None

    def test_unset_env_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_LIVE", raising=False)
        assert _hub() is None


class TestTaskSpans:
    """Task state is read off task spans opening and closing."""

    def test_open_is_running_close_is_done(self):
        hub = TelemetryHub()
        _open(hub, "job", "job:j", job="j")
        _open(hub, "phase", "map", job="j", tasks=2)
        first = _open(hub, "task", "map:a", job="j", phase="map", task_index=0)
        (phase,) = hub.snapshot()["jobs"][0]["phases"]
        assert (phase["running_tasks"], phase["done_tasks"]) == (1, 0)
        _close(hub, first)
        (phase,) = hub.snapshot()["jobs"][0]["phases"]
        assert (phase["running_tasks"], phase["done_tasks"]) == (0, 1)
        assert phase["total_tasks"] == 2 and not phase["finished"]
        tasks = hub.metrics.get("repro_live_tasks")
        assert tasks.value(job="j", phase="map", state="running") == 0
        assert tasks.value(job="j", phase="map", state="finished") == 1

    def test_losing_attempts_are_not_done(self):
        """Two failed attempts, then the winner: one task done, nothing
        left running."""
        hub = TelemetryHub()
        _open(hub, "phase", "reduce", job="j", tasks=2)
        _task(hub, "j", "reduce", 0, kind="attempt")
        _task(hub, "j", "reduce", 0, kind="attempt")
        _task(hub, "j", "reduce", 0)
        (phase,) = hub.snapshot()["jobs"][0]["phases"]
        assert (phase["running_tasks"], phase["done_tasks"]) == (0, 1)

    def test_spans_of_other_kinds_are_ignored(self):
        hub = TelemetryHub()
        _close(hub, _open(hub, "query", "q"))
        _close(hub, _open(hub, "algorithm", "rccis"))
        assert hub.snapshot()["jobs"] == []
        assert hub.metrics.families() == []

    def test_the_hub_owns_no_thread(self):
        import threading

        before = set(threading.enumerate())
        hub = TelemetryHub()
        _open(hub, "phase", "map", job="j", tasks=1)
        _task(hub, "j", "map", 0)
        hub.publish()
        hub.snapshot()
        assert set(threading.enumerate()) == before
        hub.close()
        assert set(threading.enumerate()) == before


class TestProgressAndEta:
    def test_no_state_no_progress(self):
        hub = TelemetryHub()
        snap = hub.snapshot()
        assert snap["progress"] == 0.0
        assert snap["eta_seconds"] is None

    def test_uniform_weights_without_plan(self):
        hub = TelemetryHub()
        _open(hub, "job", "job:j", job="j")
        _open(hub, "phase", "map", job="j", tasks=4)
        for index in range(2):
            _task(hub, "j", "map", index)
        # map half done and weighs 1/3 of the job -> 1/6 overall.
        assert hub.snapshot()["progress"] == pytest.approx(1 / 6)

    def test_plan_weights_scale_phases(self):
        hub = TelemetryHub()
        _plan(
            hub,
            [{"records_read": 600.0, "shuffled_records": 200.0}],
            modelled_seconds=4.0,
        )
        _open(hub, "job", "job:j", job="j")
        _close(hub, _open(hub, "phase", "map", job="j", tasks=1))
        # map weighs 600 of (600 + 200 + 200).
        snap = hub.snapshot()
        assert snap["algorithm"] == "a"
        assert snap["progress"] == pytest.approx(0.6)
        assert snap["eta_seconds"] is not None
        assert snap["modelled_seconds"] == 4.0

    def test_unstarted_predicted_cycles_in_denominator(self):
        hub = TelemetryHub()
        _plan(hub, [
            {"records_read": 100.0, "shuffled_records": 100.0},
            {"records_read": 100.0, "shuffled_records": 100.0},
        ])
        _close(hub, _open(hub, "job", "job:cycle-1", job="cycle-1"))
        # One of two equal-weight cycles done.
        assert hub.snapshot()["progress"] == pytest.approx(0.5)

    def test_final_gauges_on_close(self):
        hub = TelemetryHub()
        _plan(hub, [{"records_read": 10.0, "shuffled_records": 5.0}],
              modelled_seconds=2.5)
        _open(hub, "job", "job:j", job="j")
        _close(hub, _open(hub, "phase", "map", job="j", tasks=1))
        hub.close()
        gauge = hub.metrics.gauge(
            "repro_live_run_seconds", labels=("kind",), group=GROUP_LIVE
        )
        kinds = {key[0]: value for key, value in gauge.samples()}
        assert kinds["actual"] >= 0.0
        assert kinds["predicted"] == 2.5
        assert kinds["eta_initial"] == hub.snapshot()["eta_initial_seconds"]

    def test_close_idempotent(self):
        hub = TelemetryHub()
        hub.close()
        hub.close()
        assert hub.closed


class TestStatusServer:
    def _recorder(self) -> TraceRecorder:
        recorder = TraceRecorder(live=True)
        recorder.start_span("job:j", kind="job", job="j")
        phase = recorder.start_span("map", kind="phase", job="j", tasks=2)
        with recorder.span(
            "map:a", kind="task", parent=phase, job="j", phase="map",
            task_index=0,
        ):
            pass
        return recorder

    def test_routes(self):
        recorder = self._recorder()
        server = StatusServer(recorder, port=0).start()
        try:
            prom = urlopen(server.url + "/metrics").read().decode("utf-8")
            assert 'repro_live_tasks{job="j",phase="map",state="finished"} 1' in prom
            assert "repro_live_run_progress_ratio" in prom
            progress = json.loads(
                urlopen(server.url + "/progress").read().decode("utf-8")
            )
            assert progress["jobs"][0]["job"] == "j"
            assert progress["jobs"][0]["phases"][0]["done_tasks"] == 1
            page = urlopen(server.url + "/").read().decode("utf-8")
            assert "<html" in page.lower()
            error = urlopen(server.url + "/nope")
        except Exception as exc:  # urllib raises on 404
            assert "404" in str(exc)
        finally:
            server.close()
            recorder.close()


class TestRenderings:
    SNAPSHOT = {
        "algorithm": "rccis",
        "elapsed_seconds": 1.5,
        "progress": 0.25,
        "eta_seconds": 4.5,
        "closed": False,
        "jobs": [
            {
                "job": "split",
                "finished": False,
                "phases": [
                    {
                        "phase": "map",
                        "total_tasks": 4,
                        "done_tasks": 1,
                        "finished": False,
                        "running_tasks": 2,
                    }
                ],
            }
        ],
    }

    def test_progress_line(self):
        line = render_progress_line(self.SNAPSHOT)
        assert "progress  25%" in line
        assert "eta 4.5s" in line
        assert "split map 1/4" in line

    def test_printer_closes_with_first_eta_against_actual(self):
        hub = TelemetryHub()
        _open(hub, "job", "job:j", job="j")
        _open(hub, "phase", "map", job="j", tasks=2)
        _task(hub, "j", "map", 0)
        stream = io.StringIO()
        ProgressPrinter(hub, stream=stream).close()
        first_eta = hub.snapshot()["eta_initial_seconds"]
        assert first_eta is not None
        assert f"first ETA {first_eta:.2f}s" in stream.getvalue()


class TestRecorderIntegration:
    def test_live_off_by_default(self):
        recorder = TraceRecorder()
        assert recorder.live is None
        recorder.close()

    def test_live_config_attaches_hub(self):
        recorder = TraceRecorder(live=True)
        try:
            assert isinstance(recorder.live, TelemetryHub)
            assert recorder.live.metrics is recorder.metrics
        finally:
            recorder.close()

    def test_close_closes_hub(self):
        recorder = TraceRecorder(live=True)
        recorder.close()
        assert recorder.live.closed

    def test_live_env(self, monkeypatch):
        """An observed run under ``REPRO_LIVE=1`` folds no live family."""
        from repro.core.executor import execute
        from repro.core.query import IntervalJoinQuery

        from tests.conftest import make_dataset

        monkeypatch.setenv("REPRO_LIVE", "1")
        recorder = TraceRecorder()
        execute(
            IntervalJoinQuery.parse([("R1", "overlaps", "R2")]),
            make_dataset(("R1", "R2"), 20, seed=3),
            observer=recorder,
        )
        recorder.close()
        assert recorder.live is None
        assert not [
            metric.name
            for metric in recorder.metrics.families()
            if metric.group == GROUP_LIVE
        ]

    def test_live_group_excluded_from_fingerprint(self):
        registry = MetricsRegistry()
        registry.counter("plain_total").inc(3)
        baseline = registry.fingerprint()
        registry.gauge("repro_live_run_progress_ratio", group=GROUP_LIVE).set(1)
        assert registry.fingerprint() == baseline

    def test_snapshot_spans_includes_open_spans(self):
        recorder = TraceRecorder()
        span = recorder.start_span("job:x", kind="job")
        spans = recorder.snapshot_spans()
        assert any(s.name == "job:x" for s in spans)
        recorder.end_span(span)
        recorder.close()
