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
job here exactly when :func:`job_columnar_gate` passes — its code
implements the protocol — and on the records plane otherwise, with
bit-identical outputs either way (``docs/data_plane.md`` states the
rule and its evidence).
"""

from repro.columnar.batch import (
    ColumnarPairs,
    ColumnValues,
    MapBlock,
    PayloadStore,
    interval_columns,
    job_columnar_gate,
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
    "job_columnar_gate",
    "operator_map_columns",
    "ranged_targets",
]
