"""Simulated distributed file systems.

The paper's jobs read relations from HDFS files and write partial results
back between MapReduce cycles.  Two interchangeable implementations are
provided behind one abstract interface:

* :class:`InMemoryFileSystem` — the default for tests and benchmarks;
  record lists keyed by path.
* :class:`LocalFileSystem` — a directory-backed store that serialises
  records as JSON lines (with a pluggable codec), so pipelines survive
  process restarts and multi-process executors can share state.

Paths are plain strings with ``/`` separators.  A "file" holds an ordered
sequence of records; directories are implicit (a path prefix).  Output
paths behave like Hadoop job outputs: writing to an existing path raises
unless ``overwrite=True``.

Task output follows Hadoop's two-phase commit protocol: a reduce attempt
writes to ``<output>/_temporary/task-NNNNN/attempt-K`` and the winning
attempt is *promoted* (renamed) to ``<output>/part-NNNNN`` on success —
failed and speculative attempts are discarded without ever becoming
visible, and a job that fails is *aborted*: whatever its tasks staged is
removed.  Mirroring Hadoop's hidden-file convention, path components
starting with ``_`` are invisible to :meth:`FileSystem.read_dir`, so a
reader of the output directory can never observe uncommitted data.

The file system is the data plane's record boundary: on the columnar
plane map tasks still read their input records through
:meth:`FileSystem.read_dir` and reduce outputs are still committed as
materialised record lists — only the *intermediate* pair stream between
map and reduce changes representation (struct-of-arrays columns and
shared-memory blocks; see :mod:`repro.columnar` and
``docs/data_plane.md``).  Persisted files are therefore byte-identical
across planes, which is what lets each job of a pipeline pick its own.
"""

from __future__ import annotations

import abc
import itertools
import json
import os
import shutil
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.errors import FileSystemError

__all__ = ["FileSystem", "InMemoryFileSystem", "LocalFileSystem"]


class FileSystem(abc.ABC):
    """Abstract record-oriented file system."""

    @abc.abstractmethod
    def write(
        self, path: str, records: Iterable[Any], overwrite: bool = False
    ) -> int:
        """Write ``records`` to ``path``; returns the record count.

        Raises :class:`FileSystemError` if the path exists and
        ``overwrite`` is false (mirrors Hadoop's output-path check).
        """

    @abc.abstractmethod
    def read(self, path: str) -> Iterator[Any]:
        """Iterate over the records stored at ``path``."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        """Whether a file exists at ``path``."""

    @abc.abstractmethod
    def delete(self, path: str) -> None:
        """Remove the file at ``path`` (no-op when absent)."""

    @abc.abstractmethod
    def list_prefix(self, prefix: str) -> List[str]:
        """All file paths starting with ``prefix``, sorted."""

    def rename(self, src: str, dst: str) -> None:
        """Move the file at ``src`` to ``dst`` (replacing any existing
        file there).  The generic implementation copies and deletes;
        concrete file systems override with an atomic move."""
        self.write(dst, self.read(src), overwrite=True)
        self.delete(src)

    # ------------------------------------------------------------------
    # Task-output commit protocol (Hadoop's FileOutputCommitter shape):
    # every attempt writes under _temporary/, only a promoted attempt
    # becomes a visible part file.  A file system may be shared between
    # concurrent jobs and knows nothing about who observes them: the
    # runner records the commit traffic on each job's own spans.
    # ------------------------------------------------------------------
    def task_attempt_path(self, base: str, index: int, attempt: int) -> str:
        """Where task ``index``'s attempt ``attempt`` stages its output."""
        return f"{base}/_temporary/task-{index:05d}/attempt-{attempt}"

    def write_attempt(
        self, base: str, index: int, attempt: int, records: Iterable[Any]
    ) -> str:
        """Stage one attempt's output under ``_temporary``; returns the
        staged path.  Invisible to :meth:`read_dir` until promoted."""
        path = self.task_attempt_path(base, index, attempt)
        self.write(path, records, overwrite=True)
        return path

    def discard_attempt(self, base: str, index: int, attempt: int) -> None:
        """Drop one staged attempt (failed or speculative loser)."""
        self.delete(self.task_attempt_path(base, index, attempt))

    def promote_attempt(self, base: str, index: int, attempt: int) -> str:
        """Commit one staged attempt as ``part-NNNNN``.

        The winning attempt's file is renamed into place and every other
        staged attempt of the task is discarded, so exactly one
        attempt's output ever becomes visible.
        """
        src = self.task_attempt_path(base, index, attempt)
        if not self.exists(src):
            raise FileSystemError(
                f"cannot promote missing attempt: {src!r}"
            )
        dst = f"{base}/part-{index:05d}"
        self.rename(src, dst)
        for leftover in self.list_prefix(f"{base}/_temporary/task-{index:05d}/"):
            self.delete(leftover)
        return dst

    def abort_job(self, base: str) -> None:
        """Abort a job that will not commit: drop every attempt still
        staged under ``<base>/_temporary/``, so a failed job leaves
        nothing behind.  Part files already promoted are not touched."""
        for staged in self.list_prefix(f"{base}/_temporary/"):
            self.delete(staged)

    # ------------------------------------------------------------------
    def append_partition(self, base: str, index: int, records: Iterable[Any]) -> str:
        """Write one ``part-NNNNN`` file under ``base`` (Hadoop layout),
        through the commit protocol: stage as attempt 0, then promote."""
        self.write_attempt(base, index, 0, records)
        return self.promote_attempt(base, index, 0)

    @staticmethod
    def _is_hidden(relative: str) -> bool:
        """Hadoop's convention: ``_``-prefixed components are invisible
        to directory readers (``_temporary`` staging, ``_SUCCESS``)."""
        return any(part.startswith("_") for part in relative.split("/"))

    def read_dir(self, base: str) -> Iterator[Any]:
        """Iterate over all records in all *visible* files under ``base``
        (uncommitted ``_temporary`` attempt data is never surfaced).
        The files are chained, not re-yielded: collecting a directory
        costs one pass per file, not one generator resume per record."""
        prefix = base.rstrip("/") + "/"
        paths = [
            path
            for path in self.list_prefix(prefix)
            if not self._is_hidden(path[len(prefix):])
        ]
        if not paths and self.exists(base):
            paths = [base]
        return itertools.chain.from_iterable(map(self.read, paths))

    def count(self, path: str) -> int:
        """Number of records at ``path`` (or under it as a directory)."""
        return sum(1 for _ in self.read_dir(path))


class InMemoryFileSystem(FileSystem):
    """A dict-backed file system; the default substrate for simulations."""

    def __init__(self) -> None:
        self._files: Dict[str, List[Any]] = {}

    def write(
        self, path: str, records: Iterable[Any], overwrite: bool = False
    ) -> int:
        if path in self._files and not overwrite:
            raise FileSystemError(f"output path already exists: {path!r}")
        stored = list(records)
        self._files[path] = stored
        return len(stored)

    def read(self, path: str) -> Iterator[Any]:
        try:
            records = self._files[path]
        except KeyError:
            raise FileSystemError(f"no such file: {path!r}") from None
        # No snapshot: a stored list is replaced (write, rename), never
        # mutated in place.
        return iter(records)

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        self._files.pop(path, None)

    def rename(self, src: str, dst: str) -> None:
        try:
            self._files[dst] = self._files.pop(src)
        except KeyError:
            raise FileSystemError(f"no such file: {src!r}") from None

    def list_prefix(self, prefix: str) -> List[str]:
        # list() snapshots the keys atomically: another job may stage or
        # promote files on this file system while we scan.
        return sorted(p for p in list(self._files) if p.startswith(prefix))


class LocalFileSystem(FileSystem):
    """A real-directory-backed file system serialising JSON lines.

    Parameters
    ----------
    root:
        Directory under which all paths live.
    encode / decode:
        Record codec; defaults to JSON.  Supply custom callables to store
        rich objects (e.g. ``Interval`` tuples).
    """

    def __init__(
        self,
        root: str,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._encode = encode or (lambda record: record)
        self._decode = decode or (lambda record: record)

    def _resolve(self, path: str) -> str:
        clean = os.path.normpath(path.strip("/"))
        if clean.startswith(".."):
            raise FileSystemError(f"path escapes file system root: {path!r}")
        return os.path.join(self.root, clean)

    def write(
        self, path: str, records: Iterable[Any], overwrite: bool = False
    ) -> int:
        target = self._resolve(path)
        if os.path.exists(target) and not overwrite:
            raise FileSystemError(f"output path already exists: {path!r}")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        count = 0
        with open(target, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(self._encode(record)))
                handle.write("\n")
                count += 1
        return count

    def read(self, path: str) -> Iterator[Any]:
        target = self._resolve(path)
        if not os.path.isfile(target):
            raise FileSystemError(f"no such file: {path!r}")

        def _iterate() -> Iterator[Any]:
            with open(target, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        yield self._decode(json.loads(line))

        return _iterate()

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._resolve(path))

    def delete(self, path: str) -> None:
        target = self._resolve(path)
        if os.path.isfile(target):
            os.remove(target)
        elif os.path.isdir(target):
            shutil.rmtree(target)

    def rename(self, src: str, dst: str) -> None:
        source = self._resolve(src)
        if not os.path.isfile(source):
            raise FileSystemError(f"no such file: {src!r}")
        target = self._resolve(dst)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.replace(source, target)

    def promote_attempt(self, base: str, index: int, attempt: int) -> str:
        dst = super().promote_attempt(base, index, attempt)
        # Prune the now-empty on-disk staging directories.
        task_dir = self._resolve(f"{base}/_temporary/task-{index:05d}")
        if os.path.isdir(task_dir):
            shutil.rmtree(task_dir)
        temp_dir = self._resolve(f"{base}/_temporary")
        if os.path.isdir(temp_dir) and not os.listdir(temp_dir):
            os.rmdir(temp_dir)
        return dst

    def abort_job(self, base: str) -> None:
        # The staging directories go with the files.
        self.delete(f"{base}/_temporary")

    def list_prefix(self, prefix: str) -> List[str]:
        # Only the leading "/" is noise: a trailing one is the directory
        # boundary that keeps "out/" from matching a sibling "out2/".
        wanted = prefix.lstrip("/")
        found: List[str] = []
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, self.root).replace(os.sep, "/")
                if rel.startswith(wanted):
                    found.append(rel)
        return sorted(found)
