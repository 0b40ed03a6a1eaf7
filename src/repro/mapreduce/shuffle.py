"""The sort-shuffle: routing intermediate pairs to reduce tasks.

Hadoop hashes each key to one of ``num_reduce_tasks`` partitions, then
sorts and groups pairs by key within each partition.  The paper's
algorithms use the intermediate *key* as the logical reducer id (a
partition-interval index or a grid coordinate tuple); several logical
reducers may share one physical reduce task, which is exactly how a
fixed-size Hadoop cluster executes an ``o^m``-cell reducer grid.

Partitioners are pluggable.  :class:`HashPartitioner` reproduces Hadoop's
default — but over a *stable* hash (CRC-32 of the key's canonical
representation) rather than Python's builtin ``hash()``, which is salted
per interpreter and would route the same key differently across runs and
between a parent and its ``spawn``-started workers.
:class:`RoundRobinKeyPartitioner` assigns distinct keys to tasks in
sorted-key round-robin order, which gives deterministic, maximally even
key spreading for benchmarks.

Keys are ordered by their ``repr`` throughout (the only total order
available over mixed key types).  Each ``repr`` is computed once per
distinct key via a decorate-sort — on grid workloads with 100k+ distinct
keys the repeated ``repr`` calls of a naive ``sorted(keys, key=repr)``
per consumer dominate the shuffle (the repo benchmark's
``shuffle.shuffle_s`` layer times this function).
"""

from __future__ import annotations

import abc
import zlib
from collections import defaultdict
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "RoundRobinKeyPartitioner",
    "stable_hash",
    "shuffle",
    "columnar_shuffle",
]


def stable_hash(key: Hashable) -> int:
    """A process-stable, unsalted 32-bit hash of a key.

    CRC-32 over the UTF-8 encoded ``repr`` — the same canonical encoding
    the shuffle sorts by.  Identical across interpreter runs and across
    parent/worker process boundaries, unlike the salted builtin ``hash``.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


def _sorted_by_repr(keys: Iterable[Hashable]) -> List[Tuple[str, Hashable]]:
    """Decorate-sort: ``(repr, key)`` pairs in repr order, one ``repr``
    call per key.  Implemented as a stable argsort over the precomputed
    reprs — comparisons stay plain string compares (no tuple overhead)
    and repr ties keep enumeration order, so keys never need to be
    comparable themselves."""
    materialized = list(keys)
    reprs = [repr(key) for key in materialized]
    order = sorted(range(len(materialized)), key=reprs.__getitem__)
    return [(reprs[i], materialized[i]) for i in order]


class Partitioner(abc.ABC):
    """Maps an intermediate key to a physical reduce task index."""

    def prepare(self, keys: Sequence[Hashable]) -> None:
        """Optional hook receiving the distinct key set before routing
        (lets stateful partitioners build a key->task table)."""

    def prepare_sorted(self, ordered: Sequence[Tuple[str, Hashable]]) -> None:
        """Like :meth:`prepare`, but receiving the distinct keys already
        repr-sorted as ``(repr, key)`` pairs.  The shuffle calls this so
        stateful partitioners can reuse its sort instead of redoing it;
        the default simply delegates to :meth:`prepare`."""
        self.prepare([key for _, key in ordered])

    @abc.abstractmethod
    def partition(self, key: Hashable, num_tasks: int) -> int:
        """The reduce task (``0 <= result < num_tasks``) owning ``key``."""


class HashPartitioner(Partitioner):
    """Hadoop's default routing, over a stable hash:
    ``stable_hash(key) mod num_tasks``."""

    def partition(self, key: Hashable, num_tasks: int) -> int:
        return stable_hash(key) % num_tasks


class RoundRobinKeyPartitioner(Partitioner):
    """Deterministic even spreading of distinct keys across tasks.

    Keys are sorted and dealt round-robin, so two runs over the same key
    set always produce the same task assignment — convenient for
    reproducible load-balance measurements.
    """

    def __init__(self) -> None:
        self._table: Dict[Hashable, int] = {}

    def prepare(self, keys: Sequence[Hashable]) -> None:
        self.prepare_sorted(_sorted_by_repr(keys))

    def prepare_sorted(self, ordered: Sequence[Tuple[str, Hashable]]) -> None:
        self._table = {key: index for index, (_, key) in enumerate(ordered)}

    def partition(self, key: Hashable, num_tasks: int) -> int:
        return self._table.get(key, 0) % num_tasks


def shuffle(
    pairs: Iterable[Tuple[Hashable, Any]],
    num_tasks: int,
    partitioner: Partitioner,
) -> List[List[Tuple[Hashable, List[Any]]]]:
    """Group pairs by key and assign key groups to reduce tasks.

    Returns one list of ``(key, values)`` groups per reduce task, with
    groups sorted by key representation within each task (Hadoop's sorted
    reduce input order).  The repr-sort runs once and is shared with the
    partitioner via :meth:`Partitioner.prepare_sorted`.
    """
    grouped: Dict[Hashable, List[Any]] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    ordered = _sorted_by_repr(grouped.keys())
    partitioner.prepare_sorted(ordered)
    tasks: List[List[Tuple[Hashable, List[Any]]]] = [[] for _ in range(num_tasks)]
    for _, key in ordered:
        index = partitioner.partition(key, num_tasks)
        if not 0 <= index < num_tasks:
            raise ValueError(
                f"partitioner routed key {key!r} to invalid task {index}"
            )
        tasks[index].append((key, grouped[key]))
    return tasks


def columnar_shuffle(
    pairs,  # ColumnarPairs
    num_tasks: int,
    partitioner: Partitioner,
    store=None,
) -> List[List[Tuple[Hashable, Any]]]:
    """The columnar plane's sort-shuffle: one stable argsort, no
    per-pair Python objects.

    Grouping runs over the int64 key-code column — a stable
    ``np.argsort`` clusters equal keys while preserving emission order
    within each key, and ``np.unique`` finds the distinct codes and
    group boundaries in the same pass.  Only the *distinct* keys are
    decoded to native Python values and repr-sorted, so routing is
    bit-identical to :func:`shuffle` while the per-pair work drops from
    a dict insert + list append to a vectorised gather.

    Returns the same shape :func:`shuffle` returns — per-task lists of
    ``(key, values)`` groups in key-repr order — except each ``values``
    is a :class:`~repro.columnar.batch.ColumnValues` column slice.
    """
    import numpy as np

    from repro.columnar.batch import ColumnValues

    key_codes, gids, starts, ends, tag_codes = pairs.columns()
    tags = pairs.tags
    # Grouping only needs *an* order over the codes, not the codes
    # themselves: when the codec can recode the live range into 16 bits
    # (monotone, see KeyCodec.compact_codes) the stable sort becomes a
    # radix sort, several times faster than comparison-sorting int64.
    compact = pairs.codec.compact_codes(key_codes)
    order = np.argsort(
        key_codes if compact is None else compact, kind="stable"
    )
    sorted_codes = key_codes[order]
    # sorted_codes is ascending (compact recodings are monotone), so the
    # group boundaries are a neighbour-difference scan — cheaper than
    # np.unique, which would sort again.
    if len(sorted_codes):
        changed = np.empty(len(sorted_codes), dtype=bool)
        changed[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=changed[1:])
        first_index = np.flatnonzero(changed)
    else:
        first_index = np.empty(0, dtype=np.int64)
    distinct = sorted_codes[first_index]
    boundaries = np.append(first_index, len(sorted_codes))
    keys = [pairs.codec.decode(int(code)) for code in distinct]
    slices = {
        repr(key): slice(int(boundaries[i]), int(boundaries[i + 1]))
        for i, key in enumerate(keys)
    }
    ordered = _sorted_by_repr(keys)
    partitioner.prepare_sorted(ordered)
    sorted_gids = gids[order]
    sorted_starts = starts[order]
    sorted_ends = ends[order]
    sorted_tag_codes = tag_codes[order]
    tasks: List[List[Tuple[Hashable, Any]]] = [[] for _ in range(num_tasks)]
    for key_repr, key in ordered:
        index = partitioner.partition(key, num_tasks)
        if not 0 <= index < num_tasks:
            raise ValueError(
                f"partitioner routed key {key!r} to invalid task {index}"
            )
        sl = slices[key_repr]
        tasks[index].append(
            (
                key,
                ColumnValues(
                    key,
                    sorted_gids[sl],
                    sorted_starts[sl],
                    sorted_ends[sl],
                    sorted_tag_codes[sl],
                    tags,
                    store,
                ),
            )
        )
    return tasks
