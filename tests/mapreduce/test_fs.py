"""Unit tests for the simulated file systems."""

import pytest

from repro.errors import FileSystemError
from repro.mapreduce import fs as fs_module
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

    @pytest.mark.parametrize("root", ["", "/", "a/..", "."])
    def test_a_path_naming_the_root_is_refused(self, tmp_path, root):
        """Deleting a path that resolves to the store's own root would
        remove every file in it: it is refused, and the files survive."""
        fs = LocalFileSystem(str(tmp_path / "store"))
        fs.write("a/b", [1])
        fs.append_partition("out", 0, [2])
        with pytest.raises(FileSystemError):
            fs.delete(root)
        assert fs.list_prefix("") == ["a/b", "out/part-00000"]
        assert list(fs.read_dir("out")) == [2]

    def test_a_name_starting_with_two_dots_is_ordinary(self, tmp_path):
        fs = LocalFileSystem(str(tmp_path / "store"))
        fs.write("..cache/part-00000", [1, 2])
        assert list(fs.read("..cache/part-00000")) == [1, 2]
        assert fs.list_prefix("..cache/") == ["..cache/part-00000"]

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


class TestCommitWork:
    """A commit touches its own task's staged files and an abort its own
    job's — not every file the store holds — so committing a job costs
    work linear in its reduce tasks (a grid job runs one task per cell)."""

    @staticmethod
    def _count_enumeration(fs, monkeypatch):
        """A counter of the paths ``fs`` enumerates: the entries of every
        directory ``LocalFileSystem`` walks; for ``InMemoryFileSystem``,
        whose ``list_prefix`` scans every path it holds, that count per
        call."""
        touched = [0]
        if isinstance(fs, LocalFileSystem):
            walk = fs_module.os.walk

            def counting_walk(top, *args, **kwargs):
                for dirpath, dirnames, filenames in walk(top, *args, **kwargs):
                    touched[0] += len(dirnames) + len(filenames)
                    yield dirpath, dirnames, filenames

            monkeypatch.setattr(fs_module.os, "walk", counting_walk)
        else:
            list_prefix = fs.list_prefix

            def counting_list_prefix(prefix):
                touched[0] += len(list_prefix(""))
                return list_prefix(prefix)

            monkeypatch.setattr(fs, "list_prefix", counting_list_prefix)
        return touched

    @pytest.mark.parametrize("tasks", [16, 64])
    def test_commit_and_abort_work_is_linear_in_tasks(self, fs, monkeypatch, tasks):
        for i in range(50):
            fs.write(f"data/file-{i}", [i])
        touched = self._count_enumeration(fs, monkeypatch)
        for index in range(tasks):
            fs.write_attempt("out", index, 0, ["lost"])
            fs.discard_attempt("out", index, 0)
            fs.write_attempt("out", index, 1, [index])
        for index in range(tasks):
            fs.promote_attempt("out", index, 1)
        for index in range(tasks):
            fs.write_attempt("failed", index, 0, [index])
        fs.abort_job("failed")
        assert touched[0] <= 4 * tasks
        monkeypatch.undo()
        assert sorted(fs.read_dir("out")) == list(range(tasks))
        assert fs.list_prefix("failed") == []
        assert not any("_temporary" in path for path in fs.list_prefix("out"))

    def test_local_listing_walks_only_the_prefix_directory(self, tmp_path, monkeypatch):
        fs = LocalFileSystem(str(tmp_path / "fsroot"))
        for i in range(40):
            fs.write(f"other/file-{i}", [i])
        fs.write("out/part-00000", [1])
        fs.write("out2/part-00000", [2])
        touched = self._count_enumeration(fs, monkeypatch)
        assert fs.list_prefix("out/") == ["out/part-00000"]
        assert touched[0] == 1
        assert fs.list_prefix("/out") == ["out/part-00000", "out2/part-00000"]


class TestInMemoryStorage:
    def test_a_relations_rows_are_stored_not_copied(self):
        """``write_inputs`` hands each relation — the sequence of its
        rows — over as it is; the store keeps it, unread, and a base
        input reads back as it."""
        from repro.core.algorithms.base import input_path, write_inputs
        from repro.core.query import IntervalJoinQuery

        from tests.conftest import make_dataset

        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        data = make_dataset(query.relations, 5, seed=1)
        fs = InMemoryFileSystem()
        write_inputs(fs, query, data)
        for name in query.relations:
            assert fs.read_dir(input_path(name)) is data[name]

    def test_other_records_are_listed(self):
        fs = InMemoryFileSystem()
        records = [1, 2]
        fs.write("list", records)
        records.append(3)  # the caller's list is not the stored one
        fs.write("iterator", iter([4, 5]))
        assert list(fs.read("list")) == [1, 2]
        assert list(fs.read("iterator")) == [4, 5]
