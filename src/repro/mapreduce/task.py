"""The task APIs: the :class:`Mapper` and :class:`KernelReducer` contracts.

The programming model mirrors Hadoop's: a mapper turns each input into
intermediate key-value pairs; after the shuffle a reducer sees each key
once, together with all values shuffled to it, and emits output records.
There is one data plane (``docs/data_plane.md``): a mapper emits a whole
input's pairs as numpy columns, and a reducer is a kernel over one key
group's columns.  :func:`~repro.mapreduce.runner.run_job` runs a job only
when its reducer is a :class:`KernelReducer` and every input's mapper is
a :class:`Mapper` of one key kind, and refuses any other job before it
maps.  The algorithms' mapper implements the protocol once, in
:class:`repro.core.algorithms.routing.RoutedMapper`.

Counters carry user measurements — replicated-interval counts, predicate
comparisons — that the cost model and evaluation tables consume.

Mapper side::

    columnar_key_kind: str            # "int" | "cell" (KEY_CODECS)
    def encode_intervals(self, records, source=None) -> (starts, ends)
                                      # the routing intervals: float64,
                                      # or object where not exact; source:
                                      # the input's InputSpec.source
    def encode_terms(self, records, source=None) -> (terms, starts, ends) | None
                                      # further query terms, a column each
    def start_order(self, records, source=None) -> int64 array | None
                                      # the order the input is mapped in:
                                      # by routing start, None = as it is
    def map_columns(self, starts, ends, records, terms) -> MapBlock
                                      # target keys + row indices, tag
                                      # codes, each tag's routing term,
                                      # *non-zero* counter amounts only
    def payloads_of(self, records) -> object column
                                      # what PayloadStore.take resolves to

Reducer side::

    def kernel(self, key, group, counters) -> int64 array
                                      # one row per output: group gids
                                      # plus small int codes
    def format(self, block, store) -> Sequence
                                      # the block's output records: a
                                      # join's as an IndexBlock of row
                                      # indices (store.block), others'
                                      # through store.take

The runner calls ``kernel`` per :class:`~repro.columnar.batch.ColumnValues`
group — no context, no ``setup`` / ``cleanup`` — and formats a task's
blocks once, as one int64 array (all a ``processes`` worker sends back);
``repro.core.local.term_columns`` reads a term a group's values carry
and refuses one they do not.

:class:`MapContext` is not handed to any task: it is the emit channel of
``RoutedMapper.map``, the per-record form each router's columnar routing
is held to (``tests/properties/test_router_parity.py``) and the
benchmark's mapper probe calls.
"""

from __future__ import annotations

import abc
from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.batch import ColumnValues, MapBlock
from repro.mapreduce.counters import Counters

__all__ = ["MapContext", "Mapper", "KernelReducer"]


class MapContext:
    """The emit channel of a per-record ``map(record, context)`` call."""

    def __init__(self, counters: Counters, input_path: str) -> None:
        self.counters = counters
        #: the input file the current record came from.
        self.input_path = input_path
        self._sink: List[Any] = []

    def emit(self, key: Hashable, value: Any) -> None:
        """Emit one intermediate key-value pair."""
        self._sink.append((key, value))

    def drain(self) -> List[Any]:
        pairs, self._sink = self._sink, []
        return pairs


class Mapper(abc.ABC):
    """Routes a whole input to intermediate keys, as columns (see the
    module docstring); every input of a job keys by one kind."""

    #: the key codec the mapper's key codes are encoded by.
    columnar_key_kind: str

    @abc.abstractmethod
    def encode_intervals(self, records: Sequence[Any], source: Any = None) -> Tuple[Any, Any]:
        """The input's routing intervals as ``(starts, ends)`` columns."""

    @abc.abstractmethod
    def encode_terms(
        self, records: Sequence[Any], source: Any = None
    ) -> Optional[Tuple[Any, Any, Any]]:
        """The further query terms the values carry, or ``None``."""

    def start_order(self, records: Sequence[Any], source: Any = None) -> Optional[np.ndarray]:
        """The permutation of the input's records that the map task reads
        them in — stably by routing-interval start, so that each key
        group receives them in start order — or ``None`` to read them as
        they are, which is the default.  The pairs' row indices still
        name the records' own positions."""
        return None

    @abc.abstractmethod
    def map_columns(
        self, starts: Any, ends: Any, records: Sequence[Any], terms: Any = None
    ) -> MapBlock:
        """The input's emitted pairs as one block."""

    @abc.abstractmethod
    def payloads_of(self, records: np.ndarray) -> np.ndarray:
        """The payloads of an object column of the input's records."""


class KernelReducer(abc.ABC):
    """A reducer written as a gid-block kernel and a formatter (see the
    module docstring)."""

    @abc.abstractmethod
    def kernel(self, key: Hashable, group: ColumnValues, counters: Counters) -> np.ndarray:
        """One key group's outputs as an int64 block, one row each — an
        array of its own, never a view into the group (a shared-memory
        group is closed once the task ends)."""

    @abc.abstractmethod
    def format(self, block: np.ndarray, store: Any) -> Sequence[Any]:
        """The output records a block of kernel rows stands for."""
