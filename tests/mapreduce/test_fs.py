"""Unit tests for the simulated file systems."""

import pytest

from repro.errors import FileSystemError
from repro.mapreduce.fs import InMemoryFileSystem, LocalFileSystem


@pytest.fixture(params=["memory", "local"])
def fs(request, tmp_path):
    if request.param == "memory":
        return InMemoryFileSystem()
    return LocalFileSystem(str(tmp_path / "fsroot"))


class TestFileSystemContract:
    def test_write_read_roundtrip(self, fs):
        fs.write("dir/file", [1, 2, 3])
        assert list(fs.read("dir/file")) == [1, 2, 3]

    def test_write_returns_count(self, fs):
        assert fs.write("f", ["a", "b"]) == 2

    def test_overwrite_protection(self, fs):
        fs.write("f", [1])
        with pytest.raises(FileSystemError):
            fs.write("f", [2])
        fs.write("f", [2], overwrite=True)
        assert list(fs.read("f")) == [2]

    def test_read_missing_raises(self, fs):
        with pytest.raises(FileSystemError):
            list(fs.read("nope"))

    def test_exists_and_delete(self, fs):
        fs.write("f", [1])
        assert fs.exists("f")
        fs.delete("f")
        assert not fs.exists("f")
        fs.delete("f")  # idempotent

    def test_list_prefix(self, fs):
        fs.write("out/part-00000", [1])
        fs.write("out/part-00001", [2])
        fs.write("other", [3])
        assert fs.list_prefix("out/") == ["out/part-00000", "out/part-00001"]

    def test_read_dir(self, fs):
        fs.append_partition("out", 0, [1, 2])
        fs.append_partition("out", 1, [3])
        assert sorted(fs.read_dir("out")) == [1, 2, 3]

    def test_read_dir_stops_at_the_directory_boundary(self, fs):
        """``out/`` must not match a sibling ``out2/`` (the local file
        system used to strip the trailing slash off the prefix)."""
        fs.append_partition("out", 0, [1, 2])
        fs.append_partition("out2", 0, [3])
        assert sorted(fs.read_dir("out")) == [1, 2]
        assert fs.list_prefix("out/") == ["out/part-00000"]

    def test_read_dir_is_an_iterator_over_the_part_files_in_order(self, fs):
        """Part files are chained (collecting a directory is one pass per
        file), each opened only when the one before it is exhausted."""
        fs.append_partition("out", 1, [3])
        fs.append_partition("out", 0, [1, 2])
        records = fs.read_dir("out")
        assert iter(records) is records
        assert next(records) == 1
        fs.delete("out/part-00001")
        assert next(records) == 2
        with pytest.raises(FileSystemError):
            next(records)
        assert list(fs.read_dir("missing")) == []

    def test_read_dir_single_file_fallback(self, fs):
        fs.write("solo", [5, 6])
        assert sorted(fs.read_dir("solo")) == [5, 6]

    def test_count(self, fs):
        fs.append_partition("out", 0, list(range(7)))
        assert fs.count("out") == 7

    def test_empty_file(self, fs):
        fs.write("empty", [])
        assert list(fs.read("empty")) == []


class TestLocalFileSystem:
    def test_persists_across_instances(self, tmp_path):
        root = str(tmp_path / "persist")
        LocalFileSystem(root).write("a/b", [{"k": 1}])
        again = LocalFileSystem(root)
        assert list(again.read("a/b")) == [{"k": 1}]

    def test_path_escape_rejected(self, tmp_path):
        fs = LocalFileSystem(str(tmp_path / "jail"))
        with pytest.raises(FileSystemError):
            fs.write("../escape", [1])

    def test_custom_codec(self, tmp_path):
        fs = LocalFileSystem(
            str(tmp_path / "codec"),
            encode=lambda pair: list(pair),
            decode=lambda lst: tuple(lst),
        )
        fs.write("f", [(1, 2), (3, 4)])
        assert list(fs.read("f")) == [(1, 2), (3, 4)]


class TestCommitProtocol:
    """Hadoop-style two-phase task commit: stage under ``_temporary``,
    promote the winner, discard everything else."""

    def test_staged_attempt_invisible_to_readers(self, fs):
        fs.append_partition("out", 0, [1, 2])
        fs.write_attempt("out", 1, 0, [99])
        assert sorted(fs.read_dir("out")) == [1, 2]
        assert fs.count("out") == 2

    def test_promote_publishes_part_file(self, fs):
        fs.write_attempt("out", 3, 1, ["a", "b"])
        dst = fs.promote_attempt("out", 3, 1)
        assert dst == "out/part-00003"
        assert list(fs.read("out/part-00003")) == ["a", "b"]
        assert not fs.exists(fs.task_attempt_path("out", 3, 1))

    def test_promote_discards_losing_attempts(self, fs):
        fs.write_attempt("out", 0, 0, ["stale"])
        fs.write_attempt("out", 0, 1, ["fresh"])
        fs.promote_attempt("out", 0, 1)
        assert sorted(fs.read_dir("out")) == ["fresh"]
        assert not any(
            "_temporary" in path for path in fs.list_prefix("out/")
        )

    def test_promote_missing_attempt_raises(self, fs):
        with pytest.raises(FileSystemError):
            fs.promote_attempt("out", 0, 0)

    def test_discard_attempt(self, fs):
        fs.write_attempt("out", 0, 0, [1])
        fs.discard_attempt("out", 0, 0)
        assert not fs.exists(fs.task_attempt_path("out", 0, 0))
        fs.discard_attempt("out", 0, 0)  # idempotent

    def test_rename_moves_and_replaces(self, fs):
        fs.write("src", [1, 2])
        fs.write("dst", [9])
        fs.rename("src", "dst")
        assert not fs.exists("src")
        assert list(fs.read("dst")) == [1, 2]

    def test_rename_missing_raises(self, fs):
        with pytest.raises(FileSystemError):
            fs.rename("nope", "dst")

    def test_hidden_components_filtered_everywhere(self, fs):
        fs.write("out/part-00000", [1])
        fs.write("out/_SUCCESS", ["marker"])
        fs.write("out/_logs/history", ["log"])
        assert sorted(fs.read_dir("out")) == [1]

    def test_append_partition_routes_through_protocol(self, fs):
        fs.append_partition("out", 0, [1, 2, 3])
        assert list(fs.read("out/part-00000")) == [1, 2, 3]
        assert not any(
            "_temporary" in path for path in fs.list_prefix("out/")
        )
