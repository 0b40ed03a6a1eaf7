"""The columnar data plane (``REPRO_DATA_PLANE=columnar``).

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

The plane is selected per run (the ``data_plane`` run option, see
:mod:`repro.mapreduce.options`); a job whose mappers or reducer do not
implement the protocol falls back to the records plane, so every
algorithm keeps working under either setting and outputs stay
bit-identical across planes.
"""

from repro.columnar.batch import (
    ColRow,
    ColumnarPairs,
    ColumnValues,
    MapBlock,
    PayloadStore,
    interval_columns,
    job_columnar_gate,
    job_columnar_kind,
    operator_map_columns,
    ranged_targets,
    reduce_columns,
)
from repro.columnar.codec import KEY_CODECS, CellKeyCodec, IntKeyCodec, KeyCodec
from repro.mapreduce.options import DATA_PLANE_ENV, DATA_PLANES, resolve_data_plane

__all__ = [
    "DATA_PLANES",
    "DATA_PLANE_ENV",
    "resolve_data_plane",
    "KeyCodec",
    "IntKeyCodec",
    "CellKeyCodec",
    "KEY_CODECS",
    "MapBlock",
    "ColumnarPairs",
    "ColumnValues",
    "ColRow",
    "PayloadStore",
    "interval_columns",
    "job_columnar_gate",
    "job_columnar_kind",
    "operator_map_columns",
    "ranged_targets",
    "reduce_columns",
]
