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

Columnar protocol (optional, duck-typed)
----------------------------------------

A mapper/reducer pair may additionally implement the columnar data
plane (see ``docs/data_plane.md``).  The runner probes for these
attributes per job — when every participant has them and reports itself
ready the job runs columnar, otherwise on the records plane, so the
protocol is strictly additive.  The paper's algorithms implement the
mapper side once, in
:class:`repro.core.algorithms.routing.RoutedMapper`; a user mapper may
implement it too.

Mapper side::

    columnar_key_kind: str            # "int" | "cell" — codec in
                                      # repro.columnar.codec.KEY_CODECS
    def columnar_ready(self) -> bool  # dynamic gate (e.g. operator support)
    def encode_intervals(self, records, source=None) -> (starts, ends) | None
                                      # float64 columns, one row per
                                      # record; None when an endpoint is
                                      # not exact in float64 (the job
                                      # then runs on the records plane);
                                      # source: the input's
                                      # InputSpec.source, if it names one
    def map_columns(self, starts, ends, records) -> MapBlock
                                      # vectorised map(): encoded target
                                      # keys + row indices (+ tag codes and
                                      # *non-zero* counter amounts only)
    def value_of(self, record) -> Any # the exact shuffle value map() would
                                      # emit, a (tag, payload) pair
    def payloads_of(self, records) -> object column
                                      # value_of(r)[1] per record: what
                                      # PayloadStore.take resolves gids to

Reducer side::

    def columnar_ready(self) -> bool
    def columnar_outputs(self, key, values, counters)
                                      # values is a ColumnValues group;
                                      # the compact gid-shaped outputs:
                                      # a list, or an int64 array with
                                      # one row per output
    def materialize_outputs(self, outs, store) -> list
                                      # rebuild the records-plane output
                                      # records from a batch of them

The contract is bit-parity: for every input, the columnar path must
produce the same outputs, the same counters and the same logical loads
as the records path (``tests/integration/test_columnar_parity.py``).
"""

from __future__ import annotations

import abc
from typing import Any, Hashable, Iterable, List

from repro.mapreduce.counters import Counters

__all__ = ["MapContext", "ReduceContext", "Mapper", "Reducer", "IdentityMapper"]


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
    """Aggregates all values of one key into output records.

    The same interface serves as a combiner when passed as ``combiner`` in
    a job configuration (combiner output values feed the shuffle under the
    same key, exactly like Hadoop).
    """

    def setup(self, context: ReduceContext) -> None:
        """Called once before the first key of a reduce task."""

    @abc.abstractmethod
    def reduce(self, key: Hashable, values: List[Any], context: ReduceContext) -> None:
        """Process one key group, emitting via ``context.emit``."""

    def cleanup(self, context: ReduceContext) -> None:
        """Called once after the last key of a reduce task."""


class IdentityMapper(Mapper):
    """Emits each record unchanged under a constant key (useful for tests
    and for funnelling a file through the shuffle untouched)."""

    def __init__(self, key: Hashable = 0) -> None:
        self.key = key

    def map(self, record: Any, context: MapContext) -> None:
        context.emit(self.key, record)
