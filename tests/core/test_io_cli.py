"""Unit tests for relation serialisation and the CLI."""

import hashlib
import json
import math

import pytest

from repro.errors import InvalidIntervalError, QueryError, ReproError
from repro.cli import main
from repro.core.schema import Relation, Row
from repro.intervals.interval import Interval
from repro.io import (
    CHUNK_LINES,
    decode_row,
    encode_row,
    load_intervals_text,
    load_relation,
    parse_interval_lines,
    save_relation,
    save_result,
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

    @pytest.mark.parametrize("endpoint", ["3", True, None, [1]])
    def test_non_numeric_endpoint(self, endpoint):
        with pytest.raises(ReproError, match="non-numeric interval endpoint"):
            decode_row({"rid": 0, "values": {"I": {"start": 0, "end": endpoint}}})

    def test_endpoints_keep_their_json_type(self):
        row = decode_row({"rid": 0, "values": {"I": {"start": 1, "end": 2.5}}})
        assert repr(row.value("I")) == "Interval(start=1, end=2.5)"


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

    def test_integer_endpoints_past_2_53_survive(self, tmp_path):
        """JSON integers load as ints: a float would round 2**60 + 1."""
        relation = Relation.of_records(
            "R",
            [
                {"I": Interval(2**60 + 1, 2**60 + 3), "v": 2**60 + 5},
                {"I": Interval(0.5, 7), "v": 1.5},
            ],
        )
        path = str(tmp_path / "big.jsonl")
        save_relation(relation, path)
        loaded = load_relation(path, "R")
        assert loaded.rows == relation.rows
        assert repr(loaded.rows) == repr(relation.rows)
        assert loaded.columns("I").starts.dtype == object

    def test_an_attribute_mixing_intervals_and_numbers(self, tmp_path):
        """Legal, if odd: such a column is decoded and encoded value by
        value, to the same rows and bytes."""
        rows = [Row.make(0, {"a": Interval(0, 1)}), Row.make(1, {"a": 2.5})]
        path = tmp_path / "mixed.jsonl"
        save_relation(Relation("R", rows), str(path))
        assert path.read_text() == "".join(json.dumps(encode_row(r)) + "\n" for r in rows)
        assert load_relation(str(path), "R").rows == tuple(rows)

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        """The save writes a sibling temporary file and replaces the
        target only once it is whole."""
        path = tmp_path / "rel.jsonl"
        good = Relation.of_intervals("R", [Interval(i, i + 1) for i in range(5)])
        save_relation(good, str(path))
        before = path.read_bytes()
        bad = Relation(
            "R",
            [Row.make(i, {"v": object() if i == 2 else i}) for i in range(5)],
        )
        with pytest.raises(TypeError):
            save_relation(bad, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rel.jsonl"]
        assert load_relation(str(path), "R").rows == good.rows


def _lines(count):
    return [
        json.dumps(encode_row(Row.make(rid, {"I": Interval(rid, rid + 2)})))
        for rid in range(count)
    ]


#: Blocks whose saved bytes are pinned: ints past 2**53 and past int64
#: (a rid too), int and float endpoints mixed in a column and in one
#: interval, zero-length intervals, a real-valued attribute, and a
#: block numbered on by position.
PINNED_BLOCKS = [
    (
        {"I": ([0, 2**53 + 1, 1.5, 7], [0, 2**60 + 3, 2, 7.0]), "v": [1, 2.5, -3, 10**20]},
        [5, 2**62, 70, -1],
    ),
    ({"I": ([3.25, -1.0], [3.25, 0.5]), "v": [0.125, 4]}, [8, 9]),
    ({"I": ([10, 11], [12, 2**40]), "v": [6, 7]}, None),
]
#: The sha256 of their file, as the row-at-a-time writer wrote it.
PINNED_SHA256 = "a9fc9b7cedbd248d9bba65a0900bec713cf3d26322696127ef3f5a2ca2eee423"


def test_save_load_save_is_byte_identical_and_pinned(tmp_path):
    relation = Relation.from_column_blocks("R", PINNED_BLOCKS)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert save_relation(relation, str(first)) == 8
    assert hashlib.sha256(first.read_bytes()).hexdigest() == PINNED_SHA256
    assert first.read_text().splitlines() == [json.dumps(encode_row(row)) for row in relation.rows]
    back = load_relation(str(first), "R")
    save_relation(back, str(second))
    assert second.read_bytes() == first.read_bytes()
    assert back.rows == relation.rows


class TestChunkedLoad:
    """The loader parses :data:`CHUNK_LINES` lines per ``json.loads``;
    a fault past the first chunk reads as it did line by line."""

    N = max(6_000, 2 * CHUNK_LINES + 100)

    def write(self, tmp_path, lines):
        path = tmp_path / "rel.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_census(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, _lines(10_000))
        calls = {"make": 0, "loads": 0}
        make, loads = Row.make.__func__, json.loads

        def counted_make(cls, *args):
            calls["make"] += 1
            return make(cls, *args)

        def counted_loads(*args, **kwargs):
            calls["loads"] += 1
            return loads(*args, **kwargs)

        monkeypatch.setattr(Row, "make", classmethod(counted_make))
        monkeypatch.setattr(json, "loads", counted_loads)
        relation = load_relation(path, "R")
        assert len(relation) == 10_000
        assert calls["make"] == 0
        assert calls["loads"] <= math.ceil(10_000 / CHUNK_LINES)

    def test_invalid_json_names_its_line(self, tmp_path):
        assert 5000 > CHUNK_LINES
        lines = _lines(self.N)
        lines[4999] = "{not json"
        path = self.write(tmp_path, lines)
        with pytest.raises(ReproError, match=f"{path}:5000: invalid JSON"):
            load_relation(path, "R")

    def test_blank_lines_count_toward_line_numbers(self, tmp_path):
        """Two values on one line parse as a chunk, one too many: the
        chunk is re-read line by line."""
        lines = _lines(self.N)
        lines[10:10] = ["", "   "]
        lines[CHUNK_LINES + 50] = '{"rid": 1}, {"rid": 2}'
        path = self.write(tmp_path, lines)
        with pytest.raises(ReproError, match=f"{path}:{CHUNK_LINES + 51}:"):
            load_relation(path, "R")
        del lines[CHUNK_LINES + 50]
        path = self.write(tmp_path, lines)
        assert len(load_relation(path, "R")) == self.N - 1

    @pytest.mark.parametrize(
        "line, error",
        [
            ('{"rid": 0, "values": {"I": {"start": 1, "end": 2}}}', QueryError),
            ('{"rid": 9999999, "values": {"J": {"start": 1, "end": 2}}}', QueryError),
            ('{"rid": 9999999, "values": {"I": 1, "J": 2}}', QueryError),
            ('{"values": {"I": {"start": 1, "end": 2}}}', ReproError),
            ('{"rid": 9999999, "values": [1, 2]}', ReproError),
            ('{"rid": 9999999, "values": {"I": {"begin": 1}}}', ReproError),
            ('{"rid": 9999999, "values": {"I": {"start": 2, "end": 1}}}', InvalidIntervalError),
            ('{"rid": 9999999, "values": {"I": {"start": NaN, "end": 1}}}', InvalidIntervalError),
        ],
        ids=[
            "duplicate-rid",
            "other-schema",
            "extra-attribute",
            "malformed-payload",
            "malformed-values",
            "malformed-interval",
            "end-before-start",
            "nan",
        ],
    )
    def test_faults_past_the_first_chunk(self, tmp_path, line, error):
        lines = _lines(self.N)
        lines[CHUNK_LINES + 7] = line
        with pytest.raises(error):
            load_relation(self.write(tmp_path, lines), "R")
        lines[CHUNK_LINES] = line  # a chunk's first row, too
        with pytest.raises(error):
            load_relation(self.write(tmp_path, lines), "R")


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


def _tuple_lines(result):
    """The lines of the tuple-at-a-time writer ``repro run -o`` had: one
    ``json.dumps`` of each tuple's ``encode_row`` payloads."""
    return "".join(
        json.dumps({name: encode_row(row) for name, row in zip(result.query.relations, t)})
        + "\n"
        for t in result.tuples
    )


#: ``R1 before R2, R2 overlaps R3``: FSTC's final blocks hold their
#: members in another order (R2, R3, R1) than the query's.
SEQUENCE_THEN_OVERLAP = [("R1", "before", "R2"), ("R2", "overlaps", "R3")]


@pytest.mark.parametrize("local", [False, True], ids=["memory", "local"])
def test_a_result_is_saved_as_the_tuple_writers_bytes(tmp_path, local):
    from repro import IntervalJoinQuery, execute
    from repro.mapreduce.fs import InMemoryFileSystem, LocalFileSystem
    from tests.columnar.test_index_block import PICKLING
    from tests.conftest import make_dataset

    query = IntervalJoinQuery.parse(SEQUENCE_THEN_OVERLAP)
    data = make_dataset(query.relations, 40, seed=5, max_length=60)
    fs = LocalFileSystem(str(tmp_path / "fs"), **PICKLING) if local else InMemoryFileSystem()
    result = execute(query, data, "fstc", num_partitions=4, fs=fs)
    unbuilt, built = tmp_path / "unbuilt.jsonl", tmp_path / "built.jsonl"
    assert save_result(result, str(unbuilt)) == len(result) > CHUNK_LINES
    expected = _tuple_lines(result)
    assert unbuilt.read_text() == expected
    assert save_result(result, str(built)) == len(result)  # from the built tuples
    assert built.read_text() == expected


class TestCli:
    def test_run_output_is_pinned(self, tmp_path, capsys):
        """``repro run -o`` on a 3-way query writes, byte for byte, what
        the tuple-at-a-time writer wrote for it."""
        paths = [str(tmp_path / f"r{seed}.jsonl") for seed in (1, 2, 3)]
        for seed, path in enumerate(paths, 1):
            assert main([
                "generate", "--name", f"R{seed}", "--n", "60", "--seed", str(seed),
                "--t-min", "0", "--t-max", "1000", "--len-min", "1", "--len-max", "150",
                "-o", path,
            ]) == 0
        out = tmp_path / "out.jsonl"
        run = ["run", "--algorithm", "fstc", "--partitions", "4", "-o", str(out)]
        for seed, path in enumerate(paths, 1):
            run += ["--relation", f"R{seed}={path}"]
        for left, predicate, right in SEQUENCE_THEN_OVERLAP:
            run += ["--condition", f"{left} {predicate} {right}"]
        assert main(run) == 0
        assert "tuples:     3836" in capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6c056aaaae621a47a457e81e8a8bb28ab548a87b0fcbe9aaa17c80460d0f1b4a"
        )

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

    def test_explain_validates_options_on_an_empty_query(
        self, tmp_path, capsys
    ):
        """A provably empty query still has its run options validated
        first, with ``--explain`` as without it."""
        r1 = str(tmp_path / "r1.jsonl")
        r2 = str(tmp_path / "r2.jsonl")
        main(["generate", "--n", "10", "--seed", "3", "-o", r1])
        main(["generate", "--n", "10", "--seed", "4", "-o", r2])
        run = [
            "run",
            "--relation", f"R1={r1}",
            "--relation", f"R2={r2}",
            "--condition", "R1 before R2",
            "--condition", "R2 before R1",
        ]
        capsys.readouterr()
        for extra in ([], ["--explain"]):
            assert main(run + extra + ["--workers", "0"]) == 1
            captured = capsys.readouterr()
            assert "workers must be a positive integer" in captured.err
            assert captured.out == ""
        assert main(run + ["--explain"]) == 0
        assert "answer empty without running jobs" in capsys.readouterr().out

    def test_explain_still_runs_a_provably_empty_query(self, tmp_path, capsys):
        """``--explain`` prints the emptiness proof and then runs the
        query as without it: the ``-o`` file and the ``--trace`` file
        are written either way (a report needs the trace)."""
        paths = []
        for seed in (1, 2, 3):
            paths.append(str(tmp_path / f"r{seed}.jsonl"))
            main(["generate", "--n", "10", "--seed", str(seed), "-o", paths[-1]])
        for extra in (["--explain"], []):
            out, trace = tmp_path / "out.jsonl", tmp_path / "t.jsonl"
            for artifact in (out, trace):
                artifact.unlink(missing_ok=True)
            code = main(
                [
                    "run",
                    *(f"--relation=R{i}={p}" for i, p in enumerate(paths, 1)),
                    "--condition", "R1 before R2",
                    "--condition", "R2 before R3",
                    "--condition", "R3 before R1",
                    "-o", str(out),
                    "--trace", str(trace),
                ]
                + extra
            )
            assert code == 0
            captured = capsys.readouterr().out
            assert "tuples:     0" in captured
            assert out.read_text() == ""
            assert trace.read_text()
            assert main(["report", str(trace)]) == 0
            assert "run report" in capsys.readouterr().out

    def test_run_flags_are_pinned(self):
        """``repro run`` takes what changes the run or what it records,
        nothing more: the artifacts are ``repro report``'s."""
        import argparse

        from repro.cli import build_parser

        (commands,) = [
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            action.option_strings[-1].lstrip("-")
            for action in commands["run"]._actions
            if action.option_strings and action.dest != "help"
        }
        assert flags == {
            "relation", "condition", "algorithm", "partitions", "executor",
            "workers", "partition-strategy", "faults", "max-attempts",
            "explain", "output", "trace", "profile", "progress",
            "serve-status",
        }

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
