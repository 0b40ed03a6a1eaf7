"""The columnar data plane.

A struct-of-arrays batch representation that flows batch-at-a-time
through map -> shuffle -> reduce:

* mappers (:class:`repro.mapreduce.task.Mapper`) emit
  ``(key_code, payload_id)`` pairs as numpy columns instead of Python
  tuples;
* the shuffle orders and groups them with one stable ``argsort`` over
  the int64 key codes (see
  :func:`repro.mapreduce.shuffle.columnar_shuffle`);
* reduce tasks receive :class:`ColumnValues` groups — column slices
  plus a reference to the job's :class:`PayloadStore` — and the
  ``processes`` executor ships the columns through
  ``multiprocessing.shared_memory`` instead of pickling record lists
  (:mod:`repro.columnar.shm`).

It is the engine's one data plane: :func:`~repro.mapreduce.runner.run_job`
runs every job here — a :class:`~repro.mapreduce.task.KernelReducer` fed
by :class:`~repro.mapreduce.task.Mapper` inputs of one key kind — and
refuses any other (``docs/data_plane.md``).
"""

from repro.columnar.batch import (
    ColumnarPairs,
    ColumnValues,
    MapBlock,
    PayloadStore,
    operator_map_columns,
    ranged_targets,
)
from repro.columnar.codec import KEY_CODECS, CellKeyCodec, IntKeyCodec, KeyCodec

__all__ = [
    "KeyCodec",
    "IntKeyCodec",
    "CellKeyCodec",
    "KEY_CODECS",
    "MapBlock",
    "ColumnarPairs",
    "ColumnValues",
    "PayloadStore",
    "operator_map_columns",
    "ranged_targets",
]
