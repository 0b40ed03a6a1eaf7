"""Unit tests of the data-plane profiler building blocks."""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    Profiler,
    Span,
    TraceRecorder,
    data_plane_summary,
    fold_spans,
    load_spans_jsonl_tolerant,
)
from repro.obs.metrics import GROUP_PROFILE
from repro.obs.profile import PROFILE_ENV, resolve_profile


class TestResolveProfile:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert resolve_profile(False) is False
        assert resolve_profile(True) is True
        monkeypatch.delenv(PROFILE_ENV)
        assert resolve_profile(True) is True

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_falsey_env(self, monkeypatch, value):
        monkeypatch.setenv(PROFILE_ENV, value)
        assert resolve_profile() is False

    def test_truthy_env(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert resolve_profile() is True

    def test_unset_env(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert resolve_profile() is False


def _span(kind, name, span_id, duration=0.25, **attributes):
    return Span(
        name=name, kind=kind, span_id=span_id, parent_id=None,
        start=0.0, end=duration, attributes=attributes,
    )


class TestProfilerHooks:
    def test_record_hooks_publish_profile_group(self):
        """What the profiler annotates on spans is what the fold turns
        into the ``profile`` group — the profiler holds no registry."""
        profiler = Profiler()
        assert not hasattr(profiler, "registry")
        task = _span("task", "map:in", 2, job="j", phase="map", input="in")
        phase = _span("phase", "reduce", 3, job="j", shm_bytes=4096)
        for span in (task, phase):
            profiler.opened(span)
        for span in (task, phase):
            profiler.emit(span)
        assert task.attributes["profile_cpu_seconds"] >= 0.0
        assert phase.attributes["profile_mem_rss_peak_bytes"] > 0
        registry, skipped = fold_spans([task, phase])
        assert skipped == []
        families = {
            name
            for name, entry in registry.as_dict().items()
            if entry.get("group") == GROUP_PROFILE
        }
        assert families == {
            "repro_profile_cpu_seconds_total",
            "repro_profile_mem_rss_peak_bytes",
            "repro_profile_shm_bytes_total",
        }
        cpu = registry.get("repro_profile_cpu_seconds_total")
        assert {labels[2] for labels, _ in cpu.samples()} == {"task", "driver"}

    def test_pooled_task_is_not_charged(self):
        """A task whose body ran in a pool worker says so on its span:
        the opening thread only waited, so no CPU is charged — and a
        task closed as a losing ``attempt`` still gets its charge."""
        profiler = Profiler()
        pooled = _span("task", "reduce[0]", 1, job="j", phase="reduce",
                       pooled=True)
        failed = _span("task", "reduce[1]", 2, job="j", phase="reduce")
        for span in (pooled, failed):
            profiler.opened(span)
        failed.kind = "attempt"
        for span in (pooled, failed):
            profiler.emit(span)
        assert "profile_cpu_seconds" not in pooled.attributes
        assert "profile_cpu_seconds" in failed.attributes

    def test_unprofiled_phase_folds_no_profile_family(self):
        """``shm_bytes`` is a fact of the run the engine always reports;
        it only becomes a ``profile`` family on a profiled phase."""
        registry, _ = fold_spans(
            [_span("phase", "reduce", 1, job="j", shm_bytes=4096)]
        )
        assert {metric.group for metric in registry.families()} == {"wall"}

    def test_profile_group_excluded_from_fingerprint(self):
        baseline = MetricsRegistry().fingerprint()
        registry, _ = fold_spans(
            [_span("task", "t", 1, job="j", phase="x", profile_cpu_seconds=1.0)]
        )
        assert registry.fingerprint() == baseline
        assert registry.fingerprint(exclude_groups=()) != baseline

    def test_summary(self):
        spans = [
            _span("task", "map:in", 2, job="two-way", phase="map",
                  input="in", profile_cpu_seconds=0.5),
            _span("phase", "shuffle", 3, duration=0.01, job="two-way",
                  keys=8, profile_cpu_driver_seconds=0.01),
        ]
        text = data_plane_summary(spans, fold_spans(spans)[0])
        assert "job two-way" in text and "map" in text
        assert "0.500s" in text
        assert "shuffle sort: 0.010s over 8 keys" in text
        assert "gc" not in text and "pkl" not in text

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
