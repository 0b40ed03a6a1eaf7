"""Unit tests of the live-telemetry building blocks.

End-to-end passivity/parity is pinned by
``tests/integration/test_live_parity.py``; these tests exercise the hub,
the resolver, the watchdog, the ETA model, the HTTP endpoint and the
terminal renderings in isolation.  The hub learns the run's structure
as a sink of the span stream, so the tests feed it ``job`` / ``phase`` /
``plan`` spans (``_open`` / ``_close`` / ``_plan``) the way a recorder
would.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from urllib.request import urlopen

import pytest

from repro.errors import ReproError
from repro.obs import (
    LiveConfig,
    MetricsRegistry,
    Span,
    StatusServer,
    TelemetryHub,
    TraceRecorder,
    fetch_progress,
    render_progress_line,
    render_top,
    resolve_live,
)
from repro.obs.live import (
    BEAT_FINISH,
    BEAT_PROGRESS,
    BEAT_START,
    LIVE_ENV,
    LIVE_STALL_ENV,
    Heartbeat,
    TaskBeat,
)
from repro.obs.metrics import GROUP_LIVE


def make_hub(**config) -> TelemetryHub:
    config.setdefault("stall_seconds", 5.0)
    return TelemetryHub(config=LiveConfig(**config))


def _open(hub, kind, name, **attributes) -> Span:
    """A span of the run opens: what the recorder tells its sinks."""
    span = Span(
        name=name, kind=kind, span_id=0, parent_id=None, start=0.0,
        attributes=attributes,
    )
    hub.opened(span)
    return span


def _close(hub, span) -> None:
    span.end = span.start + 1.0
    hub.emit(span)


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


class TestResolveLive:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(LIVE_ENV, "1")
        assert resolve_live(False) is None
        assert resolve_live(True) == LiveConfig()
        assert resolve_live(2.5) == LiveConfig(stall_seconds=2.5)

    def test_explicit_config_adopted(self, monkeypatch):
        monkeypatch.setenv(LIVE_STALL_ENV, "99")
        config = LiveConfig(stall_seconds=1.25)
        assert resolve_live(config) is config

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_falsey_env(self, monkeypatch, value):
        monkeypatch.setenv(LIVE_ENV, value)
        assert resolve_live() is None

    def test_truthy_env_honours_stall_env(self, monkeypatch):
        monkeypatch.setenv(LIVE_ENV, "1")
        monkeypatch.setenv(LIVE_STALL_ENV, "0.75")
        assert resolve_live() == LiveConfig(stall_seconds=0.75)

    def test_unset_env_is_off(self, monkeypatch):
        monkeypatch.delenv(LIVE_ENV, raising=False)
        assert resolve_live() is None

    def test_bad_stall_env(self, monkeypatch):
        monkeypatch.setenv(LIVE_ENV, "1")
        monkeypatch.setenv(LIVE_STALL_ENV, "soon")
        with pytest.raises(ReproError):
            resolve_live()

    def test_invalid_config_rejected(self):
        with pytest.raises(ReproError):
            LiveConfig(stall_seconds=0.0)
        with pytest.raises(ReproError):
            LiveConfig(poll_interval=-1.0)


class TestTaskBeat:
    def test_start_progress_finish(self):
        hub = make_hub()
        _open(hub, "job", "job:j", job="j")
        _open(hub, "phase", "map", job="j", tasks=1)
        beat = hub.task_beat("j", "map", 0)
        beat.start()
        beat.progress(10, force=True)
        beat.finish(25)
        snap = hub.snapshot()
        (job,) = snap["jobs"]
        (phase,) = job["phases"]
        assert phase["done_tasks"] == 1
        assert phase["records_processed"] == 25
        assert snap["heartbeats"] == 3

    def test_progress_throttled(self):
        hub = make_hub(heartbeat_interval=60.0)
        beat = hub.task_beat("j", "map", 0)
        beat.start()
        for _ in range(100):
            beat.progress(1)
        assert hub.snapshot()["heartbeats"] == 1  # only the start emitted
        beat.progress(50, force=True)
        assert hub.snapshot()["heartbeats"] == 2

    def test_for_attempt_rebinds(self):
        hub = make_hub()
        beat = hub.task_beat("j", "reduce", 3)
        retry = beat.for_attempt(2)
        assert (retry.job, retry.phase, retry.task_index) == ("j", "reduce", 3)
        assert retry.attempt == 2
        assert retry.channel is beat.channel

    def test_beats_from_another_thread_arrive_with_no_collector(self):
        """In-process beats — ``threads`` as much as ``serial`` — call
        ``ingest`` directly: they have arrived when ``send`` returns,
        and no collector thread or manager process exists."""
        hub = make_hub()

        def task():
            beat = hub.task_beat("j", "map", 0)
            beat.start()
            beat.finish(7)

        worker = threading.Thread(target=task)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert hub.snapshot()["heartbeats"] == 2
        assert hub._manager is None
        assert not [
            thread for thread in threading.enumerate()
            if thread.name == "repro-live-collector"
        ]

    def test_pickled_beat_reports_over_the_worker_channel(self):
        """A beat switches to the manager queue exactly when it is
        pickled — when it crosses into a pool worker."""
        from repro.obs.live import _DirectChannel, _WorkerChannel

        hub = make_hub(poll_interval=0.01).start()
        try:
            beat = hub.task_beat("j", "map", 0)
            assert type(beat.channel) is _DirectChannel
            assert hub._manager is None  # nothing crossed a boundary yet
            shipped = pickle.loads(pickle.dumps(beat))
            assert type(shipped.channel) is _WorkerChannel
            assert (shipped.job, shipped.phase, shipped.task_index) == (
                "j", "map", 0,
            )
            shipped.start()
            shipped.finish(7)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if hub.snapshot()["heartbeats"] >= 2:
                    break
                time.sleep(0.01)
            assert hub.snapshot()["heartbeats"] == 2
        finally:
            hub.close()

    def test_heartbeat_picklable(self):
        beat = Heartbeat(BEAT_PROGRESS, "j", "map", 1, 0, 42, 1.0)
        assert pickle.loads(pickle.dumps(beat)) == beat

    def test_worker_channel_survives_a_sibling_proxy_collected_mid_send(self):
        """The stdlib closes a process's connection to a manager when
        *any* of its proxies of one queue is finalised.  A pool worker
        holds one proxy per unpickled beat, and task bodies leave beats
        in cyclic garbage — so a collection triggered inside a later
        attempt's ``put`` used to close the connection under it
        (``TypeError`` from ``Connection._send``/``_recv``).  The
        unpickled channel keeps the collector out of its ``put``."""
        import gc
        import multiprocessing

        from repro.obs.live import _WorkerChannel

        manager = multiprocessing.Manager()
        try:
            beats = manager.Queue()
            blob = pickle.dumps(_WorkerChannel(beats))
            channel = pickle.loads(blob)
            assert type(channel) is _WorkerChannel
            channel.send("first")  # opens this thread's connection
            sibling = pickle.loads(blob)  # an earlier attempt's channel...
            cycle = [sibling]
            cycle.append(cycle)  # ...left in cyclic garbage
            del sibling, cycle
            thresholds = gc.get_threshold()
            gc.set_threshold(1)  # the very next container allocation collects
            try:
                channel.send("second")
            finally:
                gc.set_threshold(*thresholds)
            assert gc.isenabled()
            gc.collect()  # the sibling dies here, closing the connection
            channel.send("third")  # ...and the next put reconnects
            assert [beats.get(timeout=5) for _ in range(3)] == [
                "first", "second", "third",
            ]
        finally:
            manager.shutdown()

    def test_finish_counted_once(self):
        hub = make_hub()
        _open(hub, "phase", "reduce", job="j", tasks=2)
        beat = hub.task_beat("j", "reduce", 0)
        beat.finish()
        beat.finish()
        (job,) = hub.snapshot()["jobs"]
        assert job["phases"][0]["done_tasks"] == 1

    def test_non_heartbeat_ignored(self):
        hub = make_hub()
        hub.ingest("garbage")  # type: ignore[arg-type]
        assert hub.snapshot()["heartbeats"] == 0


class TestWatchdog:
    def test_stalled_task_flagged(self):
        hub = make_hub(stall_seconds=0.05, poll_interval=0.01).start()
        try:
            _open(hub, "phase", "map", job="j", tasks=1)
            hub.task_beat("j", "map", 0).start()
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if hub.stalled_indices("j", "map"):
                    break
                time.sleep(0.01)
            assert hub.stalled_indices("j", "map") == frozenset({0})
            assert hub.stalled_indices("j", "reduce") == frozenset()
            stalled_counter = hub.metrics.counter(
                "repro_live_stalled_total", labels=("job", "phase"),
                group=GROUP_LIVE,
            )
            assert dict(stalled_counter.samples())[("j", "map")] == 1
        finally:
            hub.close()

    def test_finished_task_never_flagged(self):
        hub = make_hub(stall_seconds=0.05, poll_interval=0.01).start()
        try:
            _open(hub, "phase", "map", job="j", tasks=1)
            beat = hub.task_beat("j", "map", 0)
            beat.start()
            beat.finish()
            time.sleep(0.2)
            assert hub.stalled_indices("j", "map") == frozenset()
        finally:
            hub.close()

    def test_heartbeats_keep_task_fresh(self):
        hub = make_hub(stall_seconds=0.15, poll_interval=0.01).start()
        try:
            _open(hub, "phase", "map", job="j", tasks=1)
            beat = hub.task_beat("j", "map", 0)
            beat.start()
            for _ in range(8):
                time.sleep(0.04)
                beat.progress(force=True)
            assert hub.stalled_indices("j", "map") == frozenset()
        finally:
            hub.close()


class TestProgressAndEta:
    def test_no_state_no_progress(self):
        hub = make_hub()
        snap = hub.snapshot()
        assert snap["progress"] == 0.0
        assert snap["eta_seconds"] is None

    def test_uniform_weights_without_plan(self):
        hub = make_hub()
        _open(hub, "job", "job:j", job="j")
        _open(hub, "phase", "map", job="j", tasks=4)
        for index in range(2):
            beat = hub.task_beat("j", "map", index)
            beat.start()
            beat.finish()
        # map half done and weighs 1/3 of the job -> 1/6 overall.
        assert hub.snapshot()["progress"] == pytest.approx(1 / 6)

    def test_plan_weights_scale_phases(self):
        hub = make_hub()
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
        hub = make_hub()
        _plan(hub, [
            {"records_read": 100.0, "shuffled_records": 100.0},
            {"records_read": 100.0, "shuffled_records": 100.0},
        ])
        _close(hub, _open(hub, "job", "job:cycle-1", job="cycle-1"))
        # One of two equal-weight cycles done.
        assert hub.snapshot()["progress"] == pytest.approx(0.5)

    def test_final_gauges_on_close(self):
        hub = make_hub()
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
        assert "eta_initial" in kinds

    def test_close_idempotent(self):
        hub = make_hub().start()
        hub.close()
        hub.close()
        assert hub.closed


class TestStatusServer:
    def _recorder(self) -> TraceRecorder:
        recorder = TraceRecorder(live=LiveConfig())
        recorder.start_span("job:j", kind="job", job="j")
        recorder.start_span("map", kind="phase", job="j", tasks=2)
        beat = recorder.task_beat("j", "map", 0)
        beat.start()
        beat.finish(11)
        return recorder

    def test_routes(self):
        recorder = self._recorder()
        server = StatusServer(recorder, port=0).start()
        try:
            prom = urlopen(server.url + "/metrics").read().decode("utf-8")
            assert "repro_live_heartbeats_total" in prom
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

    def test_fetch_progress_helper(self):
        recorder = self._recorder()
        server = StatusServer(recorder, port=0).start()
        try:
            for url in (
                server.url,
                server.url + "/",
                server.url + "/progress",
                f"127.0.0.1:{server.port}",
            ):
                snapshot = fetch_progress(url)
                assert snapshot["jobs"][0]["job"] == "j"
        finally:
            server.close()
            recorder.close()


class TestRenderings:
    SNAPSHOT = {
        "algorithm": "rccis",
        "elapsed_seconds": 1.5,
        "progress": 0.25,
        "eta_seconds": 4.5,
        "heartbeats": 12,
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
                        "records_processed": 37,
                    }
                ],
            }
        ],
        "stalled": [{"job": "split", "phase": "map", "task_index": 3}],
    }

    def test_progress_line(self):
        line = render_progress_line(self.SNAPSHOT)
        assert "progress  25%" in line
        assert "eta 4.5s" in line
        assert "split map 1/4" in line
        assert "stalled 1" in line

    def test_top_view(self):
        view = render_top(self.SNAPSHOT)
        assert "algorithm rccis" in view
        assert "1/4" in view
        assert "37 records" in view
        assert "stalled: split map[3]" in view

    def test_top_view_closed(self):
        snapshot = dict(self.SNAPSHOT, closed=True, stalled=[])
        assert "run complete" in render_top(snapshot)


class TestRecorderIntegration:
    def test_live_off_by_default(self):
        recorder = TraceRecorder()
        assert recorder.live is None
        recorder.close()

    def test_live_config_attaches_hub(self):
        recorder = TraceRecorder(live=LiveConfig(stall_seconds=1.0))
        try:
            assert isinstance(recorder.live, TelemetryHub)
            assert recorder.live.metrics is recorder.metrics
            assert recorder.live.config.stall_seconds == 1.0
        finally:
            recorder.close()

    def test_close_closes_hub(self):
        recorder = TraceRecorder(live=LiveConfig())
        recorder.close()
        assert recorder.live.closed

    def test_live_env(self, monkeypatch):
        monkeypatch.setenv(LIVE_ENV, "1")
        recorder = TraceRecorder()
        try:
            assert isinstance(recorder.live, TelemetryHub)
        finally:
            recorder.close()

    def test_live_group_excluded_from_fingerprint(self):
        registry = MetricsRegistry()
        registry.counter("plain_total").inc(3)
        baseline = registry.fingerprint()
        registry.counter("repro_live_heartbeats_total", group=GROUP_LIVE).inc()
        assert registry.fingerprint() == baseline

    def test_snapshot_spans_includes_open_spans(self):
        recorder = TraceRecorder()
        span = recorder.start_span("job:x", kind="job")
        spans = recorder.snapshot_spans()
        assert any(s.name == "job:x" for s in spans)
        recorder.end_span(span)
        recorder.close()
