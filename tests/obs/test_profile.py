"""Unit tests of the data-plane profiler building blocks."""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro.obs import (
    MetricsRegistry,
    Profiler,
    Span,
    StackSampler,
    TraceRecorder,
    data_plane_summary,
    fold_spans,
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


def _span(kind, name, span_id, duration=0.25, **attributes):
    return Span(
        name=name, kind=kind, span_id=span_id, parent_id=None,
        start=0.0, end=duration, attributes=attributes,
    )


def _shipped(profiler, job="j", phase="reduce", folded=None):
    """One pooled attempt through ``Profiler.ship``, the worker played
    by a stub: returns the attributes for the attempt's span."""

    def submit(fn, blob):
        assert pickle.loads(blob) == (len, "payload")
        worker = {
            "cpu_seconds": 0.5,
            "decode_seconds": 0.1,
            "encode_seconds": 0.2,
            "folded": folded or {},
        }
        return pickle.dumps("result"), worker

    parent = _span("phase", phase, 1, job=job)
    result, facts = profiler.ship(len, "payload", submit, parent)
    assert result == "result"
    return facts


class TestProfilerHooks:
    def test_record_hooks_publish_profile_group(self):
        """What the profiler annotates on spans is what the fold turns
        into the ``profile`` group — the profiler holds no registry."""
        profiler = Profiler()
        assert not hasattr(profiler, "registry")
        facts = _shipped(profiler, phase="map")
        assert set(facts["profile_pickle_seconds"]) == {"parent", "worker"}
        assert facts["profile_pickle_bytes"]["request"] > 0
        registry, skipped = fold_spans(
            [
                _span("task", "map:in", 2, job="j", phase="map", input="in",
                      **facts),
                _span(
                    "phase", "reduce", 3, job="j", shm_bytes=4096,
                    profile_cpu_driver_seconds=0.5,
                    profile_mem_rss_peak_bytes=1 << 20,
                    profile_mem_alloc_blocks=10,
                ),
            ]
        )
        assert skipped == []
        families = {
            name
            for name, entry in registry.as_dict().items()
            if entry.get("group") == GROUP_PROFILE
        }
        assert families == {
            "repro_profile_cpu_seconds_total",
            "repro_profile_pickle_seconds_total",
            "repro_profile_pickle_bytes_total",
            "repro_profile_mem_rss_peak_bytes",
            "repro_profile_mem_alloc_blocks",
            "repro_profile_shm_bytes_total",
        }
        seconds = registry.get("repro_profile_pickle_seconds_total")
        assert seconds.value(
            job="j", phase="map", side="worker", op="encode"
        ) == 0.2

    def test_unprofiled_phase_folds_no_profile_family(self):
        """``shm_bytes`` is a fact of the run the engine always reports;
        it only becomes a ``profile`` family on a profiled phase."""
        registry, _ = fold_spans(
            [_span("phase", "reduce", 1, job="j", shm_bytes=4096)]
        )
        assert {metric.group for metric in registry.families()} == {"wall"}

    def test_sampler_keeps_the_collector_out_of_current_frames(
        self, monkeypatch
    ):
        """``sys._current_frames()`` allocates while holding the
        interpreter's thread-list lock.  A collection started in there
        runs Python code (gc callbacks, finalisers) that can hand the
        GIL to a thread which then blocks on that lock for good — two
        samplers under a short switch interval hung the suite that way
        when the profiler still had a gc callback of its own.  The
        sampler pauses the collector for exactly that call and leaves it
        as it found it."""
        import gc
        import sys

        from repro.gc_pause import collector_paused

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
        """The worker's measurements come back from ``ship`` as span
        attributes (the fold charges them to the task) and its sampled
        stacks join the profiler's own, under the attempt's label."""
        profiler = Profiler()
        facts = _shipped(profiler, folded={"mod.f;mod.g": 3})
        assert facts["profile_cpu_seconds"] == 0.5
        assert facts["profile_pickle_seconds"]["worker"] == {
            "decode": 0.1, "encode": 0.2,
        }
        registry, _ = fold_spans(
            [_span("task", "reduce[0]", 2, job="j", phase="reduce", **facts)]
        )
        cpu = registry.get("repro_profile_cpu_seconds_total")
        assert cpu.value(job="j", phase="reduce", where="task") == 0.5
        assert profiler.folded().get("j;reduce;task;mod.f;mod.g") == 3

    def test_profile_group_excluded_from_fingerprint(self):
        baseline = MetricsRegistry().fingerprint()
        registry, _ = fold_spans(
            [_span("task", "t", 1, job="j", phase="x", profile_cpu_seconds=1.0)]
        )
        assert registry.fingerprint() == baseline
        assert registry.fingerprint(exclude_groups=()) != baseline

    def test_summary_and_collapsed(self):
        profiler = Profiler()
        facts = _shipped(profiler, "two-way", "map", folded={"m.f": 2})
        spans = [
            _span("task", "map:in", 2, job="two-way", phase="map",
                  input="in", **facts),
            _span("phase", "shuffle", 3, duration=0.01, job="two-way",
                  keys=8, profile_cpu_driver_seconds=0.01),
        ]
        text = data_plane_summary(spans, fold_spans(spans)[0])
        assert "job two-way" in text and "map" in text
        assert "shuffle sort: 0.010s over 8 keys" in text
        assert "gc" not in text
        collapsed = profiler.collapsed_stacks()
        assert "two-way;map;task;m.f 2" in collapsed

    def test_summary_empty_registry(self):
        assert "no profile metrics" in data_plane_summary(
            [], MetricsRegistry()
        )


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
