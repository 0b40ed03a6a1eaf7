"""Unit tests of the data-plane profiler building blocks."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import (
    MetricsRegistry,
    Profiler,
    StackSampler,
    TraceRecorder,
    data_plane_summary,
    load_spans_jsonl_tolerant,
    render_flame_svg,
)
from repro.obs.metrics import GROUP_PROFILE
from repro.obs.profile import (
    LEVEL_CPU,
    LEVEL_FULL,
    PROFILE_ENV,
    resolve_profile,
)


class TestResolveProfile:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert resolve_profile(False) is None
        assert resolve_profile(True) == LEVEL_CPU
        assert resolve_profile("full") == LEVEL_FULL
        assert resolve_profile("cpu") == LEVEL_CPU

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_falsey_env(self, monkeypatch, value):
        monkeypatch.setenv(PROFILE_ENV, value)
        assert resolve_profile() is None

    def test_truthy_env(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert resolve_profile() == LEVEL_CPU
        monkeypatch.setenv(PROFILE_ENV, "full")
        assert resolve_profile() == LEVEL_FULL

    def test_unset_env(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert resolve_profile() is None


class TestStackSampler:
    def test_only_registered_threads_sampled(self):
        sampler = StackSampler()
        assert sampler.sample_once() == 0
        sampler.push(threading.get_ident(), "ctx")
        assert sampler.sample_once() == 1
        folded = sampler.folded()
        assert len(folded) == 1
        (key,) = folded
        assert key.startswith("ctx;")
        assert key.split(";")[-1].endswith("sample_once") or "test" in key

    def test_label_stack_push_pop(self):
        sampler = StackSampler()
        tid = threading.get_ident()
        sampler.push(tid, "outer")
        sampler.push(tid, "inner")
        sampler.sample_once()
        assert any(k.startswith("inner;") for k in sampler.folded())
        sampler.pop(tid)
        sampler.sample_once()
        assert any(k.startswith("outer;") for k in sampler.folded())
        sampler.pop(tid)
        assert sampler.sample_once() == 0

    def test_background_thread_collects(self):
        sampler = StackSampler(interval=0.001)
        sampler.push(threading.get_ident(), "spin")
        sampler.start()
        deadline = time.monotonic() + 2.0
        while sampler.samples == 0 and time.monotonic() < deadline:
            sum(i * i for i in range(10_000))
        sampler.stop()
        assert sampler.samples > 0
        assert sampler.drain()
        assert not sampler.folded()


class TestFlameSvg:
    def test_empty(self):
        svg = render_flame_svg({}, title="empty")
        assert svg.startswith("<svg")
        assert "no samples" in svg

    def test_structure_and_escaping(self):
        folded = {
            "driver;mod.outer;mod.inner": 7,
            "driver;mod.outer;mod.<lambda>": 3,
        }
        svg = render_flame_svg(folded, title="t<&>")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "&lt;lambda&gt;" in svg
        assert "t&lt;&amp;&gt;" in svg
        assert "<script" not in svg
        # Root frame spans the full width; children split it.
        assert svg.count("<rect") >= 4

    def test_deterministic(self):
        folded = {"a;b;c": 2, "a;b;d": 1}
        assert render_flame_svg(folded) == render_flame_svg(folded)


class TestProfilerHooks:
    def test_record_hooks_publish_profile_group(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry)
        profiler.record_pickle("j", "map", "parent", "encode", 0.5)
        profiler.record_pickle_bytes("j", "map", "request", 1024)
        profiler.record_shuffle_sort("j", 0.25, 16)
        profiler.record_partition_key_bytes("j", [10, 2000])
        profiler.record_staged_bytes(4096)
        snapshot = registry.as_dict()
        families = {
            name
            for name, entry in snapshot.items()
            if entry.get("group") == GROUP_PROFILE
        }
        assert {
            "repro_profile_pickle_seconds_total",
            "repro_profile_pickle_bytes_total",
            "repro_profile_shuffle_sort_seconds_total",
            "repro_profile_shuffle_sort_keys_total",
            "repro_profile_partition_key_repr_bytes",
            "repro_profile_fs_staged_bytes_total",
        } <= families

    def test_gc_callback_may_reenter_the_locks(self):
        """The GC callback records from whichever thread triggered the
        collection — including one that is inside a registry or profiler
        call and holds its lock (a container allocated there can trip
        the collector).  With a gen-0 threshold of 1 nearly every such
        allocation does; a non-reentrant lock deadlocks at once.

        The stack sampler is parked (an interval it never reaches): a
        collection forced *inside* ``sys._current_frames()`` while the
        callback runs Python code can crash CPython 3.11 itself, which
        is not what this test is about."""
        import gc

        registry = MetricsRegistry()
        profiler = Profiler(registry, interval=3600.0)

        def hammer():
            thresholds = gc.get_threshold()
            profiler.start()
            gc.set_threshold(1, 100000, 100000)
            try:
                for round_ in range(50):
                    profiler.record_pickle("j", "map", "parent", "encode", 0.1)
                    profiler.absorb_worker(
                        "j", "map", {"cpu_seconds": 0.1, "folded": {"f": 1}}
                    )
            finally:
                gc.set_threshold(*thresholds)
                profiler.stop()

        worker = threading.Thread(target=hammer, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "GC callback deadlocked on a held lock"
        pauses = registry.get("repro_profile_gc_pauses_total")
        assert pauses is not None and sum(v for _, v in pauses.samples()) > 0

    def test_sampler_keeps_the_collector_out_of_current_frames(
        self, monkeypatch
    ):
        """``sys._current_frames()`` allocates while holding the
        interpreter's thread-list lock.  A collection started in there
        runs the gc callbacks (the profiler's own among them), Python
        code that can hand the GIL to a thread which then blocks on that
        lock for good — two samplers under a short switch interval hung
        the suite that way.  The sampler pauses the collector for exactly
        that call and leaves it as it found it."""
        import gc
        import sys

        from repro.obs.profile import collector_paused

        seen = []
        real = sys._current_frames

        def spy():
            seen.append(gc.isenabled())
            return real()

        monkeypatch.setattr(sys, "_current_frames", spy)
        sampler = StackSampler()
        sampler.push(threading.get_ident(), "job;map;task")
        assert gc.isenabled()
        assert sampler.sample_once() == 1
        assert seen == [False]
        assert gc.isenabled()
        # Nested, and with the collector already off, it stays off.
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            sampler.sample_once()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_absorb_worker(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry)
        profiler.absorb_worker(
            "j",
            "reduce",
            {
                "cpu_seconds": 0.5,
                "decode_seconds": 0.1,
                "encode_seconds": 0.2,
                "folded": {"mod.f;mod.g": 3},
            },
        )
        cpu = registry.get("repro_profile_cpu_seconds_total")
        assert cpu.value(job="j", phase="reduce", where="task") == 0.5
        assert profiler.folded().get("j;reduce;task;mod.f;mod.g") == 3

    def test_profile_group_excluded_from_fingerprint(self):
        registry = MetricsRegistry()
        baseline = registry.fingerprint()
        profiler = Profiler(registry)
        profiler.record_staged_bytes(123)
        assert registry.fingerprint() == baseline
        assert registry.fingerprint(exclude_groups=()) != baseline

    def test_summary_and_collapsed(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry)
        profiler.absorb_worker(
            "two-way", "map", {"cpu_seconds": 0.1, "folded": {"m.f": 2}}
        )
        profiler.record_shuffle_sort("two-way", 0.01, 8)
        text = profiler.summary()
        assert "two-way" in text and "map" in text
        collapsed = profiler.collapsed_stacks()
        assert "two-way;map;task;m.f 2" in collapsed

    def test_summary_empty_registry(self):
        assert "no profile metrics" in data_plane_summary(MetricsRegistry())


class TestRecorderIntegration:
    def test_recorder_off_has_no_profiler(self):
        recorder = TraceRecorder(profile=False)
        try:
            assert recorder.profiler is None
        finally:
            recorder.close()

    def test_recorder_profiled_phase_annotations(self):
        recorder = TraceRecorder(profile=True)
        try:
            assert recorder.profiler is not None
            with recorder.span("q", kind="query"):
                with recorder.span("map", kind="phase", job="j"):
                    pass
        finally:
            recorder.close()
        phase = next(s for s in recorder.spans if s.kind == "phase")
        assert "profile_mem_rss_peak_bytes" in phase.attributes
        assert "profile_cpu_driver_seconds" in phase.attributes
        assert (
            recorder.metrics.get("repro_profile_mem_rss_peak_bytes").value(
                job="j", phase="map"
            )
            > 0
        )

    def test_full_level_tracemalloc_watermarks(self):
        recorder = TraceRecorder(profile="full")
        try:
            with recorder.span("q", kind="query"):
                with recorder.span("map", kind="phase", job="j"):
                    _ = [list(range(50)) for _ in range(200)]
        finally:
            recorder.close()
        peak = recorder.metrics.get("repro_profile_mem_peak_bytes")
        assert peak is not None
        assert peak.value(job="j", phase="map") > 0


class TestTolerantSpanLoader:
    def test_warns_and_keeps_going(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"name":"a","kind":"job","id":1,"parent":null,"start":0.0,'
            '"end":1.0}\n'
            "garbage\n"
            "[1,2,3]\n"
            '{"kind":"task","id":2,"parent":1}\n'
        )
        spans, warnings = load_spans_jsonl_tolerant(str(path))
        assert [s.span_id for s in spans] == [1, 2]
        assert len(warnings) == 2
        assert "unparsable JSON" in warnings[0]
        assert "expected a span object" in warnings[1]
        # Missing fields fall back to defaults, not KeyErrors.
        assert spans[1].name == "?"
