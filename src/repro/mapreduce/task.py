"""Mapper / Reducer task APIs and their execution contexts.

The programming model mirrors Hadoop's: a :class:`Mapper` turns each input
record into zero or more intermediate key-value pairs; after the shuffle a
:class:`Reducer` sees each key once, together with all values shuffled to
it, and emits output records.  Optional ``setup``/``cleanup`` hooks run
around each task, like Hadoop's.

Contexts carry the emit channel plus :class:`~repro.mapreduce.counters.Counters`
so user code (the paper's algorithms) can record domain-specific
measurements — replicated-interval counts, predicate comparisons — that the
cost model and evaluation tables consume.

Two planes, and the reducer's type picks
----------------------------------------

A job with a plain :class:`Reducer` runs on the records plane: ``map``
per record, ``reduce`` per key group, as a user's word count does.  A
job whose reducer is a :class:`KernelReducer` — every reducer of the
paper's algorithms — runs on the columnar plane (``docs/data_plane.md``),
and :func:`~repro.mapreduce.runner.run_job` refuses it before it maps
unless every mapper implements the columnar protocol with one key kind
(the algorithms' mapper does, once, in
:class:`repro.core.algorithms.routing.RoutedMapper`).

Mapper side::

    columnar_key_kind: str            # "int" | "cell" (KEY_CODECS)
    def encode_intervals(self, records, source=None) -> (starts, ends)
                                      # the routing intervals: float64,
                                      # or object where not exact; source:
                                      # the input's InputSpec.source
    def encode_terms(self, records, source=None) -> (terms, starts, ends) | None
                                      # further query terms, a column each
    def map_columns(self, starts, ends, records, terms) -> MapBlock
                                      # target keys + row indices, tag
                                      # codes, each tag's routing term,
                                      # *non-zero* counter amounts only
    def payloads_of(self, records) -> object column
                                      # what PayloadStore.take resolves to

Reducer side, a :class:`KernelReducer`::

    def kernel(self, key, group, counters) -> int64 array
                                      # one row per output: group gids
                                      # plus small int codes
    def format(self, block, store) -> Sequence
                                      # the block's output records, gids
                                      # resolved through store.take

The runner calls ``kernel`` per :class:`~repro.columnar.batch.ColumnValues`
group — no context, no ``setup`` / ``cleanup`` — and formats a task's
blocks once, as one int64 array (all a ``processes`` worker sends back);
``repro.core.local.term_columns`` reads a term a group's values carry
and refuses one they do not.
"""

from __future__ import annotations

import abc
from typing import Any, Hashable, Iterable, List, Sequence

import numpy as np

from repro.columnar.batch import ColumnValues
from repro.mapreduce.counters import Counters

__all__ = [
    "MapContext", "ReduceContext", "Mapper", "Reducer", "KernelReducer",
    "IdentityMapper",
]


class MapContext:
    """Execution context handed to every :meth:`Mapper.map` call."""

    def __init__(self, counters: Counters, input_path: str) -> None:
        self.counters = counters
        #: the input file the current record came from (Hadoop exposes the
        #: same through ``InputSplit``; mappers keyed per input rarely need
        #: it but it is invaluable for debugging).
        self.input_path = input_path
        self._sink: List[Any] = []

    def emit(self, key: Hashable, value: Any) -> None:
        """Emit one intermediate key-value pair."""
        self._sink.append((key, value))

    def drain(self) -> List[Any]:
        pairs, self._sink = self._sink, []
        return pairs


class ReduceContext:
    """Execution context handed to every :meth:`Reducer.reduce` call."""

    def __init__(self, counters: Counters, task_index: int) -> None:
        self.counters = counters
        #: which simulated reduce task this group was assigned to.
        self.task_index = task_index
        self._sink: List[Any] = []

    def emit(self, record: Any) -> None:
        """Emit one output record."""
        self._sink.append(record)

    def emit_many(self, records: Iterable[Any]) -> None:
        """Emit a batch of output records."""
        self._sink.extend(records)

    def drain(self) -> List[Any]:
        """The records emitted so far."""
        records, self._sink = self._sink, []
        return records


class Mapper(abc.ABC):
    """Transforms input records into intermediate key-value pairs."""

    def setup(self, context: MapContext) -> None:
        """Called once before the first record of a map task."""

    @abc.abstractmethod
    def map(self, record: Any, context: MapContext) -> None:
        """Process one input record, emitting via ``context.emit``."""

    def cleanup(self, context: MapContext) -> None:
        """Called once after the last record of a map task."""


class Reducer(abc.ABC):
    """Aggregates all values of one key into output records."""

    def setup(self, context: ReduceContext) -> None:
        """Called once before the first key of a reduce task."""

    @abc.abstractmethod
    def reduce(self, key: Hashable, values: List[Any], context: ReduceContext) -> None:
        """Process one key group, emitting via ``context.emit``."""

    def cleanup(self, context: ReduceContext) -> None:
        """Called once after the last key of a reduce task."""


class KernelReducer(abc.ABC):
    """A reducer written as a gid-block kernel and a formatter (see the
    module docstring); a job with one runs on the columnar plane."""

    @abc.abstractmethod
    def kernel(self, key: Hashable, group: ColumnValues, counters: Counters) -> np.ndarray:
        """One key group's outputs as an int64 block, one row each."""

    @abc.abstractmethod
    def format(self, block: np.ndarray, store: Any) -> Sequence[Any]:
        """The output records a block of kernel rows stands for."""


class IdentityMapper(Mapper):
    """Emits each record unchanged under a constant key (useful for tests
    and for funnelling a file through the shuffle untouched)."""

    def __init__(self, key: Hashable = 0) -> None:
        self.key = key

    def map(self, record: Any, context: MapContext) -> None:
        context.emit(self.key, record)
