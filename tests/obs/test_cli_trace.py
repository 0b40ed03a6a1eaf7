"""CLI observability artifacts: ``repro run --trace/--history/--report``.

The trace test validates the emitted file against the Chrome trace-event
schema (the subset Perfetto/``chrome://tracing`` require): a JSON object
with a ``traceEvents`` array whose complete events carry ``name``,
``cat``, ``ph == "X"``, numeric non-negative ``ts``/``dur`` and integer
``pid``/``tid``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io import save_relation
from repro.mapreduce.history import JobHistory
from repro.workloads import SyntheticConfig, generate_relation


@pytest.fixture
def quickstart_files(tmp_path):
    """The quickstart query's relations, saved as CLI input files."""
    paths = {}
    for seed, name in enumerate(("R1", "R2", "R3"), start=1):
        relation = generate_relation(
            name,
            SyntheticConfig(
                n=120,
                start_dist="uniform",
                length_dist="uniform",
                t_range=(0, 5_000),
                length_range=(1, 100),
                seed=seed,
            ),
        )
        path = tmp_path / f"{name.lower()}.jsonl"
        save_relation(relation, str(path))
        paths[name] = str(path)
    return paths


def _run_args(quickstart_files):
    return [
        "run",
        "--relation", f"R1={quickstart_files['R1']}",
        "--relation", f"R2={quickstart_files['R2']}",
        "--relation", f"R3={quickstart_files['R3']}",
        "--condition", "R1 overlaps R2",
        "--condition", "R2 overlaps R3",
        "--partitions", "8",
    ]


def assert_valid_trace_events(payload) -> None:
    """Validate the Chrome trace-event JSON schema subset we emit."""
    assert isinstance(payload, dict)
    events = payload["traceEvents"]
    assert isinstance(events, list) and events
    complete = [event for event in events if event.get("ph") == "X"]
    assert complete, "at least one complete event"
    for event in complete:
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["cat"], str)
        assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
        assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert isinstance(event.get("args", {}), dict)


class TestTraceArtifact:
    def test_chrome_trace_on_quickstart_query(self, quickstart_files, tmp_path):
        trace = tmp_path / "run.trace.json"
        exit_code = main(_run_args(quickstart_files) + ["--trace", str(trace)])
        assert exit_code == 0
        payload = json.loads(trace.read_text())
        assert_valid_trace_events(payload)
        categories = {
            event["cat"]
            for event in payload["traceEvents"]
            if event.get("ph") == "X"
        }
        # the full span hierarchy made it into the artifact.
        assert {"query", "algorithm", "job", "phase", "task"} <= categories
        # rccis (the planner's choice for a colocation chain) runs two
        # cycles: both job spans are present.
        jobs = {
            event["name"]
            for event in payload["traceEvents"]
            if event.get("cat") == "job"
        }
        assert jobs == {"job:rccis-flag", "job:rccis-join"}

    def test_jsonl_trace(self, quickstart_files, tmp_path):
        trace = tmp_path / "run.jsonl"
        exit_code = main(
            _run_args(quickstart_files)
            + ["--trace", str(trace), "--trace-format", "jsonl"]
        )
        assert exit_code == 0
        entries = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert entries
        kinds = {entry["kind"] for entry in entries}
        assert {"query", "algorithm", "job", "phase", "task"} <= kinds
        by_id = {entry["id"]: entry for entry in entries}
        for entry in entries:
            if entry["parent"] is not None:
                assert entry["parent"] in by_id


class TestHistoryAndReport:
    def test_history_saved_and_totals_printed(
        self, quickstart_files, tmp_path, capsys
    ):
        history_path = tmp_path / "history.json"
        exit_code = main(
            _run_args(quickstart_files) + ["--history", str(history_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "totals:" in out and "jobs=2" in out
        history = JobHistory.load(str(history_path))
        assert [record.name for record in history] == [
            "rccis-flag",
            "rccis-join",
        ]
        # the new per-task columns are persisted.
        assert all(
            len(record.reduce_task_outputs) == len(record.reduce_task_loads)
            for record in history
        )
        assert history.totals()["jobs"] == 2

    def test_report_printed(self, quickstart_files, capsys):
        exit_code = main(_run_args(quickstart_files) + ["--report"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "job rccis-flag:" in out
        assert "job rccis-join:" in out


class TestReportDegradation:
    """``repro report`` renders whatever a damaged or partial trace
    still contains instead of failing — a live run's trace file may be
    cut off mid-write (truncated record) or may predate the plan span
    entirely (e.g. a bare ``run_job`` observed with live telemetry)."""

    def _trace(self, quickstart_files, tmp_path):
        trace = tmp_path / "run.jsonl"
        exit_code = main(
            _run_args(quickstart_files)
            + ["--trace", str(trace), "--trace-format", "jsonl"]
        )
        assert exit_code == 0
        return trace

    def test_truncated_trace_warns_and_renders(
        self, quickstart_files, tmp_path, capsys
    ):
        trace = self._trace(quickstart_files, tmp_path)
        text = trace.read_text()
        # Chop the file mid-record, as a crashed run would leave it.
        trace.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2])
        html = tmp_path / "report.html"
        exit_code = main(["report", str(trace), "--html", str(html)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "unparsable JSON" in captured.err
        assert "spans:" in captured.out
        assert html.exists()
        assert "rccis" in html.read_text()

    def test_live_spans_without_plan_span(self, tmp_path, capsys):
        """A trace from a live-monitored bare job has task spans but no
        plan span: reconciliation is skipped, the report still prints."""
        from repro.mapreduce.fs import InMemoryFileSystem
        from repro.mapreduce.job import InputSpec, JobConf
        from repro.mapreduce.runner import run_job
        from repro.mapreduce.task import IdentityMapper, Reducer
        from repro.obs import JsonlSink, TraceRecorder

        class CountReducer(Reducer):
            def reduce(self, key, values, context):
                context.emit((key, len(values)))

        fs = InMemoryFileSystem()
        fs.write("in/doc", ["a", "b", "c"])
        trace = tmp_path / "live.jsonl"
        recorder = TraceRecorder(JsonlSink(str(trace)), live=True)
        run_job(
            fs,
            JobConf(
                name="bare",
                inputs=[InputSpec("in/doc", IdentityMapper())],
                reducer=CountReducer(),
                output="out",
                num_reduce_tasks=2,
            ),
            # A function-local reducer cannot be pickled to a worker.
            executor="serial",
            observer=recorder,
        )
        recorder.close()

        html = tmp_path / "report.html"
        exit_code = main(["report", str(trace), "--html", str(html)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "no plan spans in trace; reconciliation skipped" in (
            captured.out
        )
        assert "1 jobs" in captured.out
        assert html.exists()


class TestServeStatusOnATakenPort:
    def test_run_ends_cleanly_before_anything_starts(
        self, quickstart_files, tmp_path, capsys
    ):
        """``--serve-status`` on a port somebody else holds: ``error:``
        and exit status 1 before any job runs, with nothing started —
        no telemetry thread, no trace file."""
        import socket
        import threading

        trace = tmp_path / "run.jsonl"
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            exit_code = main(
                _run_args(quickstart_files)
                + [
                    "--serve-status", str(port), "--profile",
                    "--trace", str(trace), "--trace-format", "jsonl",
                ]
            )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error: cannot serve status on port")
        assert "Traceback" not in captured.err
        assert "tuples:" not in captured.out
        assert not trace.exists()
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-")
        ]


class TestReportFromTheTraceAlone:
    """``repro report TRACE`` needs nothing beside the trace: the
    registry behind its tables is the fold of the trace's spans."""

    @staticmethod
    def _rundown(stdout):
        lines = stdout.splitlines()
        start = lines.index("data-plane profile")
        end = start + 2
        while end < len(lines) and lines[end].startswith(("job ", "  ")):
            end += 1
        return lines[start:end]

    def test_profiled_trace_is_enough(self, quickstart_files, tmp_path, capsys):
        from repro.obs import fold_spans, load_spans_jsonl

        trace, snapshot = tmp_path / "t.jsonl", tmp_path / "m.json"
        exit_code = main(
            _run_args(quickstart_files)
            + [
                "--profile", "--executor", "processes", "--workers", "2",
                "--trace", str(trace), "--trace-format", "jsonl",
                "--metrics-out", str(snapshot),
            ]
        )
        assert exit_code == 0
        run_rundown = self._rundown(capsys.readouterr().out)
        assert "job rccis-flag" in run_rundown

        html = tmp_path / "d.html"
        exit_code = main(
            ["report", str(trace), "--profile", "--html", str(html)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "plan reconciliation — rccis" in out
        assert "metrics:" not in out  # nothing had to be skipped
        # Same numbers as the run printed and as --metrics-out wrote.
        assert self._rundown(out) == run_rundown
        registry, skipped = fold_spans(load_spans_jsonl(str(trace)))
        assert skipped == []
        assert registry.as_dict() == json.loads(snapshot.read_text())
        page = html.read_text()
        for panel in (
            "Plan &#183; predicted vs observed",
            "Data plane &#183; CPU / memory / serialization",
        ):
            assert panel in page

    def test_report_takes_no_metrics_snapshot(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "t.jsonl", "--metrics", "m.json"])
        assert "unrecognized arguments: --metrics" in capsys.readouterr().err

    def test_trace_from_before_the_fold_still_loads(
        self, quickstart_files, tmp_path, capsys
    ):
        """A trace written before spans carried everything the fold
        reads: the families it cannot supply are named, nothing raises."""
        trace = tmp_path / "run.jsonl"
        assert main(
            _run_args(quickstart_files)
            + ["--trace", str(trace), "--trace-format", "jsonl"]
        ) == 0
        newer = {
            "input", "staged", "key_loads", "promoted", "tasks", "keys",
            "output_records",
        }
        old_lines = []
        for line in trace.read_text().splitlines():
            entry = json.loads(line)
            keep = set() if entry["kind"] == "algorithm" else {"output_records"}
            entry["attributes"] = {
                key: value
                for key, value in entry["attributes"].items()
                if key not in newer - keep
            }
            old_lines.append(json.dumps(entry))
        trace.write_text("\n".join(old_lines) + "\n")
        capsys.readouterr()

        html = tmp_path / "old.html"
        exit_code = main(
            ["report", str(trace), "--profile", "--html", str(html)]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        (metrics_line,) = [
            line for line in captured.out.splitlines()
            if line.startswith("metrics:")
        ]
        for family in (
            "repro_map_records_total", "repro_key_load",
            "repro_fs_attempts_total", "repro_algorithm_output_records",
        ):
            assert family in metrics_line
        assert "plan reconciliation — rccis" in captured.out
        assert "no profile metrics recorded" in captured.out
        assert "Skew &amp; replication per job" in html.read_text()
