"""Unit tests for relation serialisation and the CLI."""

import json

import pytest

from repro.errors import ReproError
from repro.cli import main
from repro.core.schema import Relation, Row
from repro.intervals.interval import Interval
from repro.io import (
    decode_row,
    encode_row,
    load_intervals_text,
    load_relation,
    parse_interval_lines,
    save_relation,
)


class TestRowCodec:
    def test_roundtrip_intervals_and_scalars(self):
        row = Row.make(7, {"I": Interval(1.5, 9.25), "A": 3.0, "tag": 2})
        assert decode_row(encode_row(row)) == row

    def test_malformed_payload(self):
        with pytest.raises(ReproError):
            decode_row({"nope": 1})

    def test_malformed_interval(self):
        with pytest.raises(ReproError):
            decode_row({"rid": 0, "values": {"I": {"begin": 0}}})


class TestRelationFiles:
    def test_save_load_roundtrip(self, tmp_path):
        relation = Relation.of_records(
            "R",
            [
                {"I": Interval(0, 5), "A": 1.0},
                {"I": Interval(3, 9), "A": 2.0},
            ],
        )
        path = str(tmp_path / "rel.jsonl")
        assert save_relation(relation, path) == 2
        loaded = load_relation(path, "R2")
        assert loaded.name == "R2"
        assert loaded.rows == relation.rows

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "rel.jsonl"
        row = Row.make(0, {"I": Interval(0, 1)})
        path.write_text(json.dumps(encode_row(row)) + "\n\n")
        assert len(load_relation(str(path), "R")) == 1

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ReproError):
            load_relation(str(path), "R")


class TestTextFormat:
    def test_parse_lines(self):
        lines = ["0 5", "3,9", "# comment", "", "7 7  # trailing"]
        assert list(parse_interval_lines(lines)) == [
            Interval(0, 5),
            Interval(3, 9),
            Interval(7, 7),
        ]

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(ReproError):
            list(parse_interval_lines(["1 2 3"]))
        with pytest.raises(ReproError):
            list(parse_interval_lines(["a b"]))

    def test_load_text_file(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0 5\n10 12\n")
        relation = load_intervals_text(str(path), "R")
        assert relation.intervals() == [Interval(0, 5), Interval(10, 12)]


class TestCli:
    def test_generate_and_run(self, tmp_path, capsys):
        r1 = str(tmp_path / "r1.jsonl")
        r2 = str(tmp_path / "r2.jsonl")
        assert main(["generate", "--n", "200", "--seed", "1", "-o", r1]) == 0
        assert main(["generate", "--n", "200", "--seed", "2", "-o", r2]) == 0
        out = str(tmp_path / "out.jsonl")
        code = main(
            [
                "run",
                "--relation", f"R1={r1}",
                "--relation", f"R2={r2}",
                "--condition", "R1 overlaps R2",
                "--partitions", "4",
                "-o", out,
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "algorithm:  two_way" in captured
        with open(out) as handle:
            records = [json.loads(line) for line in handle]
        # Cross-check against an in-process run.
        from repro import IntervalJoinQuery, execute
        from repro.io import load_relation as load

        data = {"R1": load(r1, "R1"), "R2": load(r2, "R2")}
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        expected = execute(query, data, num_partitions=4)
        assert len(records) == len(expected)

    def test_task_timeout_travels_by_argument(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--task-timeout`` reaches the attempt loop through
        ``execute(task_timeout=...)``: the process environment is left
        exactly as it was, and the limit really applies."""
        import os

        # A chaos environment would fail the budget-less second run with
        # an injected crash instead of the timeout under test.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        r1 = str(tmp_path / "r1.jsonl")
        r2 = str(tmp_path / "r2.jsonl")
        main(["generate", "--n", "50", "--seed", "1", "-o", r1])
        main(["generate", "--n", "50", "--seed", "2", "-o", r2])
        run = [
            "run",
            "--relation", f"R1={r1}",
            "--relation", f"R2={r2}",
            "--condition", "R1 overlaps R2",
            "--partitions", "4",
            "--max-attempts", "1",
        ]
        import repro.cli

        seen = {}
        real_execute = repro.cli.execute

        def spy(*args, **kwargs):
            seen["task_timeout"] = kwargs.get("task_timeout")
            seen["environ"] = dict(os.environ)
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "execute", spy)
        before = dict(os.environ)
        assert main(run + ["--task-timeout", "60"]) == 0
        assert seen == {"task_timeout": 60.0, "environ": before}
        assert dict(os.environ) == before
        # A limit no attempt can meet fails the run (one attempt, no
        # budget to retry within) with the timeout error.
        assert main(run + ["--task-timeout", "1e-9"]) == 1
        assert dict(os.environ) == before
        assert "task timeout" in capsys.readouterr().err

    def test_explain(self, tmp_path, capsys):
        r1 = str(tmp_path / "r1.jsonl")
        r2 = str(tmp_path / "r2.jsonl")
        main(["generate", "--n", "10", "--seed", "3", "-o", r1])
        main(["generate", "--n", "10", "--seed", "4", "-o", r2])
        code = main(
            [
                "run",
                "--relation", f"R1={r1}",
                "--relation", f"R2={r2}",
                "--condition", "R1 before R2",
                "--explain",
            ]
        )
        assert code == 0
        assert "SEQUENCE" in capsys.readouterr().out

    def test_run_with_text_relations(self, tmp_path, capsys):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        r1.write_text("0 5\n")
        r2.write_text("3 9\n")
        code = main(
            [
                "run",
                "--relation", f"A={r1}",
                "--relation", f"B={r2}",
                "--condition", "A overlaps B",
            ]
        )
        assert code == 0
        assert "tuples:     1" in capsys.readouterr().out

    def test_histogram_command(self, tmp_path, capsys):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        r1.write_text("0 2\n")
        r2.write_text("5 9\n1 4\n")
        assert main(["histogram", str(r1), str(r2)]) == 0
        out = capsys.readouterr().out
        assert "before" in out
        assert "total" in out

    def test_trace_command(self, tmp_path, capsys):
        out = str(tmp_path / "trains.jsonl")
        code = main(
            ["trace", "--profile", "P04", "--target", "300",
             "--seed", "1", "-o", out]
        )
        assert code == 0
        assert len(load_relation(out, "T")) == 300

    def test_bad_condition_reports_error(self, tmp_path, capsys):
        r1 = tmp_path / "r1.txt"
        r1.write_text("0 1\n")
        code = main(
            [
                "run",
                "--relation", f"A={r1}",
                "--relation", f"B={r1}",
                "--condition", "A overlaps",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_reports_error(self, capsys):
        code = main(
            [
                "run",
                "--relation", "A=/nonexistent/file.jsonl",
                "--relation", "B=/nonexistent/file.jsonl",
                "--condition", "A overlaps B",
            ]
        )
        assert code == 1
