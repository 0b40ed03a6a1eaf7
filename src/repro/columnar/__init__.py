"""The columnar data plane.

A struct-of-arrays batch representation that flows batch-at-a-time
through map -> shuffle -> reduce:

* mappers that implement the columnar protocol (see
  :mod:`repro.mapreduce.task`) emit ``(key_code, payload_id)`` pairs as
  numpy columns instead of Python tuples;
* the shuffle orders and groups them with one stable ``argsort`` over
  the int64 key codes (see
  :func:`repro.mapreduce.shuffle.columnar_shuffle`);
* reduce tasks receive :class:`ColumnValues` groups — column slices
  plus a reference to the job's :class:`PayloadStore` — and the
  ``processes`` executor ships the columns through
  ``multiprocessing.shared_memory`` instead of pickling record lists
  (:mod:`repro.columnar.shm`).

Nobody selects the plane: :func:`~repro.mapreduce.runner.run_job` runs a
job here exactly when its reducer is a
:class:`~repro.mapreduce.task.KernelReducer` (``docs/data_plane.md``
states the rule).
"""

from repro.columnar.batch import (
    ColumnarPairs,
    ColumnValues,
    MapBlock,
    PayloadStore,
    interval_columns,
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
    "interval_columns",
    "operator_map_columns",
    "ranged_targets",
]
