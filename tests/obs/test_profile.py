"""Unit tests of the data-plane profiler building blocks."""

from __future__ import annotations

import pytest

from repro.obs import (
    Profiler,
    Span,
    TraceRecorder,
    data_plane_summary,
    fold_spans,
    load_spans_jsonl,
)
from repro.obs.profile import data_plane_rows


def _profiler(**switch):
    """The profiler a recorder built with ``switch`` attaches, or
    ``None``."""
    recorder = TraceRecorder(**switch)
    recorder.close()
    return recorder.profiler


class TestResolveProfile:
    """Profiling is on exactly when the recorder is asked for it (``repro
    run --profile``); ``$REPRO_PROFILE`` is not a switch — only the run
    options read the environment."""

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert _profiler(profile=False) is None
        assert isinstance(_profiler(profile=True), Profiler)
        monkeypatch.delenv("REPRO_PROFILE")
        assert isinstance(_profiler(profile=True), Profiler)

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_falsey_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert _profiler() is None

    def test_truthy_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert _profiler() is None

    def test_unset_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert _profiler() is None


def _span(kind, name, span_id, duration=0.25, **attributes):
    return Span(
        name=name, kind=kind, span_id=span_id, parent_id=None,
        start=0.0, end=duration, attributes=attributes,
    )


class TestProfilerHooks:
    def test_record_hooks_annotate_the_spans_alone(self):
        """What the profiler measures lives on the spans it annotates,
        where the rundown reads it — the profiler holds no registry and
        the fold makes no family of it."""
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
        families = {metric.name for metric in fold_spans([task, phase]).families()}
        assert families == {"repro_map_records_total", "repro_phase_wall_seconds"}
        rows, notes = data_plane_rows([task, phase])
        assert [row[:2] for row in rows] == [("j", "map"), ("j", "reduce")]
        assert rows[0][2] == task.attributes["profile_cpu_seconds"]
        assert rows[1][3:] == (
            phase.attributes["profile_cpu_driver_seconds"],
            phase.attributes["profile_mem_rss_peak_bytes"],
        )
        assert notes == [
            ("j", "shm transport: 4.0KiB via shared memory (columnar plane)")
        ]

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
        the rundown shows it only for a profiled phase, and no metric
        family carries it."""
        spans = [_span("phase", "reduce", 1, job="j", shm_bytes=4096)]
        assert data_plane_rows(spans) == ([], [])
        assert {metric.group for metric in fold_spans(spans).families()} == {
            "wall"
        }

    def test_profile_facts_reach_no_fingerprint(self):
        registry = fold_spans(
            [_span("task", "t", 1, job="j", phase="x", profile_cpu_seconds=1.0)]
        )
        assert registry.fingerprint(exclude_groups=()) == {}

    def test_summary(self):
        spans = [
            _span("task", "map:in", 2, job="two-way", phase="map",
                  input="in", profile_cpu_seconds=0.5),
            _span("phase", "shuffle", 3, duration=0.01, job="two-way",
                  keys=8, profile_cpu_driver_seconds=0.01),
        ]
        text = data_plane_summary(spans)
        assert "job two-way" in text and "map" in text
        assert "0.500s" in text
        assert "shuffle sort: 0.010s over 8 keys" in text
        assert "gc" not in text and "pkl" not in text

    def test_summary_of_unprofiled_spans(self):
        assert "no profile metrics" in data_plane_summary(
            [_span("phase", "map", 1, job="j")]
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
        (row,), _ = data_plane_rows(recorder.spans)
        assert row[:2] == ("j", "map") and row[4] > 0


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
        spans, warnings = load_spans_jsonl(str(path))
        assert [s.span_id for s in spans] == [1, 2]
        assert len(warnings) == 2
        assert "unparsable JSON" in warnings[0]
        assert "expected a span object" in warnings[1]
        # Missing fields fall back to defaults, not KeyErrors.
        assert spans[1].name == "?"
