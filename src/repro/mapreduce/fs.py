"""The simulated distributed file system.

The paper's jobs read relations from HDFS files and write partial results
back between MapReduce cycles.  Here that store is
:class:`InMemoryFileSystem`: record sequences keyed by path, held in the
process that runs the jobs.  Under every executor only that process
touches it — a worker ships its task's result back, and the parent
stages and commits it — so nothing is serialised on its way in or out.

Paths are plain strings with ``/`` separators.  A "file" holds an ordered
sequence of records; directories are implicit (a path prefix).  Output
paths behave like Hadoop job outputs: writing to an existing path raises
unless ``overwrite=True``.

Task output follows Hadoop's two-phase commit protocol: a reduce attempt
writes to ``<output>/_temporary/task-NNNNN/attempt-K`` and the winning
attempt is *promoted* (renamed) to ``<output>/part-NNNNN`` on success —
failed attempts are discarded without ever becoming visible, and a job
that fails is *aborted*: whatever its tasks staged is removed.
Mirroring Hadoop's hidden-file convention, path components starting
with ``_`` are invisible to :meth:`InMemoryFileSystem.read_dir`, so a
reader of the output directory can never observe uncommitted data.

The file system is the data plane's record boundary: map tasks read
their inputs through :meth:`InMemoryFileSystem.read_dir` and reduce
outputs are committed whole — a join's or RCCIS's flag cycle's as an
:class:`~repro.columnar.batch.IndexBlock`, a sequence of exactly the
records it stands for, kept as it is and read back as one block — while
the *intermediate* pair stream between map and reduce is columns
(struct-of-arrays batches and shared-memory blocks; see
:mod:`repro.columnar` and ``docs/data_plane.md``).  A few small files
(PASM's marks, the grid family's flags) are record lists.
"""

from __future__ import annotations

import itertools
from collections.abc import MutableSequence, Sequence as SequenceABC
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Set

from repro.columnar.batch import IndexBlock
from repro.errors import FileSystemError

__all__ = ["InMemoryFileSystem"]


class InMemoryFileSystem:
    """A dict-backed record file system; the substrate of every run."""

    def __init__(self) -> None:
        self._files: Dict[str, Sequence[Any]] = {}
        #: output base -> task index -> the attempt paths staged for it:
        #: all a commit or an abort touches, whatever else the file
        #: system holds.
        self._staged: Dict[str, Dict[int, Set[str]]] = {}

    def write(
        self, path: str, records: Iterable[Any], overwrite: bool = False
    ) -> int:
        """Write ``records`` to ``path``; returns the record count.

        Raises :class:`FileSystemError` if the path exists and
        ``overwrite`` is false (mirrors Hadoop's output-path check).
        """
        if path in self._files and not overwrite:
            raise FileSystemError(f"output path already exists: {path!r}")
        # An immutable sequence — a block, a tuple, a relation — is
        # stored as it is, not listed.
        immutable = isinstance(records, SequenceABC) and not isinstance(records, MutableSequence)
        stored = records if immutable else list(records)
        self._files[path] = stored
        return len(stored)

    def read(self, path: str) -> Iterator[Any]:
        """Iterate over the records stored at ``path``."""
        try:
            records = self._files[path]
        except KeyError:
            raise FileSystemError(f"no such file: {path!r}") from None
        # No snapshot: a stored list is replaced (write, rename), never
        # mutated in place.
        return iter(records)

    def exists(self, path: str) -> bool:
        """Whether a file exists at ``path``."""
        return path in self._files

    def delete(self, path: str) -> None:
        """Remove the file at ``path`` (no-op when absent)."""
        self._files.pop(path, None)

    def rename(self, src: str, dst: str) -> None:
        """Move the file at ``src`` to ``dst``, replacing any file there."""
        try:
            self._files[dst] = self._files.pop(src)
        except KeyError:
            raise FileSystemError(f"no such file: {src!r}") from None

    def list_prefix(self, prefix: str) -> List[str]:
        """All file paths starting with ``prefix``, sorted."""
        # list() snapshots the keys atomically: another job may stage or
        # promote files on this file system while we scan.
        return sorted(p for p in list(self._files) if p.startswith(prefix))

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
        """All records in all visible files under ``base``.  A single
        stored file (how a job's base relation is written) reads back as
        its stored sequence, not a copy, and a directory whose non-empty
        files are all blocks as one block.  Other files are chained, not
        re-yielded: collecting a directory costs one pass per file, not
        one generator resume per record."""
        paths = self._visible(base)
        if paths == [base]:
            return self._files[base]
        blocks = [records for records in map(self._files.get, paths) if records]
        if blocks and all(isinstance(block, IndexBlock) for block in blocks):
            return IndexBlock.concat(blocks)
        return itertools.chain.from_iterable(map(self.read, paths))

    def parts(self, base: str) -> List[Sequence[Any]]:
        """The sequence stored in each visible file under ``base`` (or
        of ``base``), in path order: how a run's result takes its output
        — the files as they are, not joined."""
        stored = map(self._files.get, self._visible(base))
        return [records for records in stored if records is not None]
