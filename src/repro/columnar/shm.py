"""Zero-copy reduce-task transport over ``multiprocessing.shared_memory``.

The ``processes`` executor on the columnar plane packs each reduce
task's group columns into **one** shared-memory block instead of
pickling value lists:

* layout: ``[gids int64 | starts f64 | ends f64 | term starts f64 |
  term ends f64 | tag_codes int16]``, all groups concatenated in group
  order (the 2-byte column goes last so every column stays naturally
  aligned); the term columns hold ``width`` slots per row and are empty
  when the values carry no further query terms;
* the picklable :class:`ShmReduceTask` descriptor carries only the block
  name, the per-group keys/lengths, the tag table and the term layouts —
  a few hundred bytes regardless of data size, which is the pickle-bytes
  collapse the reduce phase span's ``shm_bytes`` makes visible.

Shared memory holds numbers only: a task whose endpoint columns are
``object`` (an endpoint that is not a float64) keeps its gids and tag
codes in the block and sends its endpoint columns pickled in the
descriptor.

Ownership: the **parent** creates and unlinks every block (create →
dispatch → join → unlink, in a ``finally``); workers attach, build
array views, and must drop every view before ``close()`` — a live view
of ``shm.buf`` raises ``BufferError`` on close.  Fork-started workers
share the parent's ``resource_tracker`` process, so the worker-side
attach registration is an idempotent set-add there and the parent's
unlink remains the single point of removal — explicitly unregistering
would *remove* the creator's entry and make the later unlink complain.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.batch import ColumnValues, Terms

__all__ = ["ShmReduceTask", "pack_reduce_task", "unpack_reduce_task"]


@dataclass
class ShmReduceTask:
    """Picklable descriptor of one packed reduce task."""

    shm_name: Optional[str]  # None for an empty task (shm size must be > 0)
    total_rows: int
    keys: List[Hashable]
    lengths: List[int]
    tags: Tuple[str, ...]
    #: per tag code, the terms its values carry (``ColumnValues.layouts``).
    layouts: Tuple[Tuple[Any, ...], ...] = ()
    #: further-term slots per row (0: the values carry none).
    width: int = 0
    #: ``starts, ends, term starts, term ends`` when they are ``object``.
    endpoints: Optional[Tuple[np.ndarray, ...]] = None

    def shapes(self) -> List[Tuple[Any, Tuple[int, ...]]]:
        """``(dtype, shape)`` of each column the block holds, in order."""
        rows = self.total_rows
        floats = [(np.float64, (rows,))] * 2 + [(np.float64, (rows, self.width))] * 2
        return [
            (np.int64, (rows,)), *(floats if self.endpoints is None else ()),
            (np.int16, (rows,)),
        ]

    @property
    def nbytes(self) -> int:
        return sum(np.dtype(t).itemsize * int(np.prod(s)) for t, s in self.shapes())


def _views(task: ShmReduceTask, buf) -> List[np.ndarray]:
    views, offset = [], 0
    for dtype, shape in task.shapes():
        views.append(np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset))
        offset += views[-1].nbytes
    return views


def pack_reduce_task(
    groups: Sequence[Tuple[Hashable, ColumnValues]],
) -> Tuple[ShmReduceTask, Optional[shared_memory.SharedMemory]]:
    """Pack one task's groups into a fresh shared-memory block.

    Returns the descriptor plus the block (``None`` when the task is
    empty); the caller owns the block and must ``close()`` + ``unlink()``
    it once the task result has been collected.
    """
    terms = groups[0][1].terms if groups else None
    task = ShmReduceTask(
        None, sum(len(values) for _, values in groups), [key for key, _ in groups],
        [len(values) for _, values in groups], groups[0][1].tags if groups else (),
        groups[0][1].layouts if groups else (),
        terms.starts.shape[1] if terms is not None else 0,
    )
    if task.total_rows == 0:
        return task, None
    gids, starts, ends, term_starts, term_ends, tag_codes = (
        np.concatenate(parts) for parts in zip(*(
            (values.gids, values.starts, values.ends,
             *((values.terms.starts, values.terms.ends) if terms is not None
               else (np.empty((len(values), 0)),) * 2),
             values.tag_codes)
            for _, values in groups
        ))
    )
    endpoints = (starts, ends, term_starts, term_ends)
    if any(column.dtype == object for column in endpoints):
        task.endpoints, endpoints = endpoints, ()
    shm = shared_memory.SharedMemory(create=True, size=task.nbytes)
    task.shm_name = shm.name
    for view, column in zip(_views(task, shm.buf), (gids, *endpoints, tag_codes)):
        view[...] = column
    return task, shm


def unpack_reduce_task(
    task: ShmReduceTask,
) -> Tuple[List[Tuple[Hashable, ColumnValues]], Optional[shared_memory.SharedMemory]]:
    """Rebuild a packed task's groups inside a worker process.

    The returned :class:`ColumnValues` hold **views** into the attached
    block (``store=None`` — workers emit gid outputs, the parent
    materialises).  The caller must drop every group before closing the
    returned block.
    """
    shm = None
    if task.shm_name is None:
        views = [np.empty(shape, dtype) for dtype, shape in task.shapes()]
    else:
        shm = shared_memory.SharedMemory(name=task.shm_name)
        views = _views(task, shm.buf)
    if task.endpoints is not None:
        views[1:1] = task.endpoints
    gids, starts, ends, term_starts, term_ends, tag_codes = views
    groups: List[Tuple[Hashable, ColumnValues]] = []
    offset = 0
    for key, n in zip(task.keys, task.lengths):
        sl = slice(offset, offset + n)
        terms = Terms(term_starts[sl], term_ends[sl]) if task.width else None
        groups.append((key, ColumnValues(
            key, gids[sl], starts[sl], ends[sl], tag_codes[sl], task.tags, None, terms,
            task.layouts,
        )))
        offset += n
    del views, gids, starts, ends, term_starts, term_ends, tag_codes
    return groups, shm
