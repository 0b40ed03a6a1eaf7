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
failed attempts are discarded without ever becoming visible, and a job
that fails is *aborted*: whatever its tasks staged is removed.  Mirroring Hadoop's hidden-file convention, path components
starting with ``_`` are invisible to :meth:`FileSystem.read_dir`, so a
reader of the output directory can never observe uncommitted data.

The file system is the data plane's record boundary: map tasks read
their input records through :meth:`FileSystem.read_dir` and reduce
outputs are committed as records — a join's or RCCIS's flag cycle's as
an :class:`~repro.columnar.batch.IndexBlock`, a sequence of exactly
those records, which :class:`InMemoryFileSystem` keeps whole and reads
back as one block — while the *intermediate* pair stream between map
and reduce is columns (struct-of-arrays batches and shared-memory
blocks; see :mod:`repro.columnar` and ``docs/data_plane.md``).  A
persisted file therefore holds records, byte-identical on every
executor.
"""

from __future__ import annotations

import abc
import itertools
import json
import os
import shutil
from collections.abc import MutableSequence, Sequence as SequenceABC
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.columnar.batch import IndexBlock
from repro.errors import FileSystemError

__all__ = ["FileSystem", "InMemoryFileSystem", "LocalFileSystem"]


class FileSystem(abc.ABC):
    """Abstract record-oriented file system."""

    def __init__(self) -> None:
        #: output base -> task index -> the attempt paths staged for it:
        #: all a commit or an abort touches, whatever else the file
        #: system holds.
        self._staged: Dict[str, Dict[int, Set[str]]] = {}

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
        self._staged.setdefault(base, {}).setdefault(index, set()).add(path)
        return path

    def discard_attempt(self, base: str, index: int, attempt: int) -> None:
        """Drop one staged attempt (a failed one)."""
        path = self.task_attempt_path(base, index, attempt)
        self.delete(path)
        self._staged.get(base, {}).get(index, set()).discard(path)

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
        staged = self._staged.get(base, {})
        for leftover in staged.pop(index, set()) - {src}:
            self.delete(leftover)
        if not staged:
            self._staged.pop(base, None)
        return dst

    def abort_job(self, base: str) -> None:
        """Abort a job that will not commit: drop every attempt still
        staged under ``<base>/_temporary/``, so a failed job leaves
        nothing behind.  Part files already promoted are not touched."""
        for staged in self._staged.pop(base, {}).values():
            for path in staged:
                self.delete(path)

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

    def _visible(self, base: str) -> List[str]:
        """The files under ``base`` but ``_temporary`` ones, or ``base``."""
        prefix = base.rstrip("/") + "/"
        paths = [
            path
            for path in self.list_prefix(prefix)
            if not self._is_hidden(path[len(prefix):])
        ]
        if not paths and self.exists(base):
            paths = [base]
        return paths

    def read_dir(self, base: str) -> Iterator[Any]:
        """Iterate over all records in all visible files under ``base``.
        The files are chained, not re-yielded: collecting a directory
        costs one pass per file, not one generator resume per record."""
        return itertools.chain.from_iterable(map(self.read, self._visible(base)))

    def parts(self, base: str) -> List[Sequence[Any]]:
        """The records of each visible file under ``base`` (or of
        ``base``), one sequence a file, in path order: how a run's
        result takes its output — the files as they are, not joined."""
        return [list(self.read(path)) for path in self._visible(base)]

    def count(self, path: str) -> int:
        """Number of records at ``path`` (or under it as a directory)."""
        return sum(1 for _ in self.read_dir(path))


class InMemoryFileSystem(FileSystem):
    """A dict-backed file system; the default substrate for simulations."""

    def __init__(self) -> None:
        super().__init__()
        self._files: Dict[str, Sequence[Any]] = {}

    def write(
        self, path: str, records: Iterable[Any], overwrite: bool = False
    ) -> int:
        if path in self._files and not overwrite:
            raise FileSystemError(f"output path already exists: {path!r}")
        # An immutable sequence — a block, a tuple, a relation — is
        # stored as it is, not listed.
        immutable = isinstance(records, SequenceABC) and not isinstance(records, MutableSequence)
        stored = records if immutable else list(records)
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

    def read_dir(self, base: str) -> Iterator[Any]:
        """As :meth:`FileSystem.read_dir` — except that a single stored
        file (how a job's base relation is written) reads back as its
        stored sequence, not a copy, and a directory whose non-empty
        files are all blocks as one block."""
        paths = self._visible(base)
        if paths == [base]:
            return self._files[base]
        blocks = [records for records in map(self._files.get, paths) if records]
        if blocks and all(isinstance(block, IndexBlock) for block in blocks):
            return IndexBlock.concat(blocks)
        return itertools.chain.from_iterable(map(self.read, paths))

    def parts(self, base: str) -> List[Sequence[Any]]:
        """As :meth:`FileSystem.parts`, each file the sequence stored."""
        stored = map(self._files.get, self._visible(base))
        return [records for records in stored if records is not None]

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
        super().__init__()
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._encode = encode or (lambda record: record)
        self._decode = decode or (lambda record: record)

    def _resolve(self, path: str) -> str:
        """``path`` under the root.  A path that normalises to the root
        itself names no file — deleting it would empty the store — and
        one above it escapes; both are refused.  A name that only starts
        with two dots (``..cache``) is an ordinary name."""
        clean = os.path.normpath(path.strip("/"))
        if clean in (".", "..") or clean.startswith(".." + os.sep):
            raise FileSystemError(f"path names no file under the root: {path!r}")
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
        if base not in self._staged:  # the job's last staged task
            try:
                os.rmdir(self._resolve(f"{base}/_temporary"))
            except OSError:  # absent, or something else is staged there
                pass
        return dst

    def abort_job(self, base: str) -> None:
        # The staging directories go with the files.
        self._staged.pop(base, None)
        self.delete(f"{base}/_temporary")

    def list_prefix(self, prefix: str) -> List[str]:
        # Only the leading "/" is noise: a trailing one is the directory
        # boundary that keeps "out/" from matching a sibling "out2/".
        # The walk starts in the prefix's own directory.
        wanted = prefix.lstrip("/")
        directory = wanted[: wanted.rfind("/") + 1]
        found: List[str] = []
        top = self._resolve(directory) if directory else self.root
        for dirpath, _, filenames in os.walk(top):
            for name in filenames:
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, self.root).replace(os.sep, "/")
                if rel.startswith(wanted):
                    found.append(rel)
        return sorted(found)
