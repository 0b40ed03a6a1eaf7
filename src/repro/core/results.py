"""Join results and execution metrics."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.batch import IndexBlock
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Relation, Row
from repro.errors import ValidationError
from repro.gc_pause import collector_paused
from repro.mapreduce.cost import CostModel, DEFAULT_COST_MODEL
from repro.mapreduce.pipeline import PipelineResult

__all__ = ["ExecutionMetrics", "JoinResult"]


@dataclass
class ExecutionMetrics:
    """Everything an algorithm run measured.

    The fields mirror the columns of the paper's evaluation tables:
    intermediate pair counts ("# Pairs"), replicated interval counts
    ("# Intervals Replicated"), per-reducer loads (the Figure 4 story) and
    a modelled wall-clock time ("Time").
    """

    algorithm: str
    num_cycles: int = 0
    map_output_records: int = 0
    shuffled_records: int = 0
    replicated_intervals: int = 0
    replicated_pairs: int = 0
    #: rows dropped by PASM's marking cycle before grid routing.
    pruned_rows: int = 0
    comparisons: int = 0
    records_read: int = 0
    output_records: int = 0
    #: records received per logical reducer (grid cell / partition).
    reducer_loads: Dict[Hashable, int] = field(default_factory=dict)
    #: modelled seconds under the cost model used at run time.
    simulated_seconds: float = 0.0
    #: number of consistent reducers used by grid algorithms (None
    #: otherwise).
    consistent_reducers: Optional[int] = None
    #: total grid cells for grid algorithms (None otherwise).
    total_reducers: Optional[int] = None
    #: task attempts that failed (injected or genuine) and were retried
    #: or gave up; 0 on fault-free runs.
    tasks_failed: int = 0
    #: failed attempts that were re-run within the retry budget.
    tasks_retried: int = 0
    #: algorithm-specific shape metadata (grid dimensions, cascade
    #: stages, partition counts) — what the dashboard's utilisation
    #: table is built from.
    shape: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_pipeline(
        cls,
        algorithm: str,
        pipeline: PipelineResult,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> "ExecutionMetrics":
        """Fold a pipeline's job results into one metric record."""
        counters = pipeline.counters
        loads: Dict[Hashable, int] = {}
        for job in pipeline.jobs:
            for key, value in job.logical_reducer_loads.items():
                loads[key] = loads.get(key, 0) + value
        return cls(
            algorithm=algorithm,
            num_cycles=pipeline.num_cycles,
            map_output_records=pipeline.total_map_output_records,
            shuffled_records=pipeline.total_shuffled_records,
            replicated_intervals=counters.value("join", "replicated_intervals"),
            replicated_pairs=counters.value("join", "replicated_pairs"),
            pruned_rows=counters.value("join", "pruned_rows"),
            comparisons=counters.value("work", "comparisons"),
            records_read=counters.value("framework", "map_input_records"),
            output_records=pipeline.jobs[-1].output_records if pipeline.jobs else 0,
            reducer_loads=loads,
            simulated_seconds=cost_model.pipeline_time(pipeline),
            tasks_failed=counters.value("faults", "tasks_failed"),
            tasks_retried=counters.value("faults", "tasks_retried"),
        )

    @classmethod
    def combine(
        cls, algorithm: str, parts: Sequence["ExecutionMetrics"]
    ) -> "ExecutionMetrics":
        """Sum metrics of sub-executions (used by composite algorithms
        such as FCTS that orchestrate other algorithms' pipelines)."""
        merged = cls(algorithm=algorithm)
        for part in parts:
            merged.num_cycles += part.num_cycles
            merged.map_output_records += part.map_output_records
            merged.shuffled_records += part.shuffled_records
            merged.replicated_intervals += part.replicated_intervals
            merged.replicated_pairs += part.replicated_pairs
            merged.pruned_rows += part.pruned_rows
            merged.comparisons += part.comparisons
            merged.records_read += part.records_read
            merged.simulated_seconds += part.simulated_seconds
            merged.tasks_failed += part.tasks_failed
            merged.tasks_retried += part.tasks_retried
            for key, value in part.reducer_loads.items():
                composite_key = (part.algorithm, key)
                merged.reducer_loads[composite_key] = (
                    merged.reducer_loads.get(composite_key, 0) + value
                )
        if parts:
            merged.output_records = parts[-1].output_records
        return merged

    @property
    def replication_factor(self) -> float:
        """Intermediate pairs emitted per input record read — the
        paper's communication-cost headline (Section 6)."""
        if not self.records_read:
            return 0.0
        return self.map_output_records / self.records_read

    @property
    def max_reducer_load(self) -> int:
        return max(self.reducer_loads.values(), default=0)

    @property
    def mean_reducer_load(self) -> float:
        if not self.reducer_loads:
            return 0.0
        return sum(self.reducer_loads.values()) / len(self.reducer_loads)

    def observed_quantities(self) -> Dict[str, float]:
        """The run-measured values of exactly the quantities
        :meth:`repro.core.tuning.PlanPrediction.quantities` predicts —
        the observed side of every plan reconciliation."""
        return {
            "records_read": float(self.records_read),
            "map_output_records": float(self.map_output_records),
            "shuffled_records": float(self.shuffled_records),
            "replication_factor": float(self.replication_factor),
            "max_reducer_load": float(self.max_reducer_load),
            "num_cycles": float(self.num_cycles),
            "modelled_seconds": float(self.simulated_seconds),
        }


class JoinResult:
    """The output of one join execution.

    A run's result is its output's row-index columns: the
    :class:`~repro.columnar.batch.IndexBlock` part files its final
    reduce tasks committed, held as they are (:meth:`of_blocks`).
    ``len``, :meth:`tuple_ids`, :meth:`same_output`,
    :func:`~repro.core.validation.validate_result` and
    :func:`~repro.io.save_result` read those columns and build no
    ``Row`` tuple; :attr:`tuples` builds them on first access, once.

    Attributes
    ----------
    query:
        The executed query.
    metrics:
        The run's :class:`ExecutionMetrics`.
    """

    def __init__(
        self,
        query: IntervalJoinQuery,
        tuples: Sequence[Tuple[Row, ...]],
        metrics: ExecutionMetrics,
    ) -> None:
        """A result of ``tuples`` handed in, each a tuple of
        :class:`Row` in ``query.relations`` order."""
        self.query = query
        self.metrics = metrics
        # A list is kept, not copied.
        self._tuples: Optional[List[Tuple[Row, ...]]] = (
            tuples if isinstance(tuples, list) else list(tuples)
        )
        self._blocks: List[IndexBlock] = []
        # The tuples of the blocks a build has let go, last block's last
        # record first: kept across a build that fails part way.
        self._tail: List[Tuple[Row, ...]] = []
        self._length = len(self._tuples)
        self._lock = threading.Lock()

    @classmethod
    def of_blocks(
        cls,
        query: IntervalJoinQuery,
        blocks: Iterable[IndexBlock],
        metrics: ExecutionMetrics,
    ) -> "JoinResult":
        """A result of tuple blocks whose members include every query
        relation: a run's parts, or the reference join's one block."""
        result = cls(query, [], metrics)
        result._blocks = [block for block in blocks if len(block)]
        result._tuples = None
        result._length = sum(map(len, result._blocks))
        return result

    @property
    def tuples(self) -> List[Tuple[Row, ...]]:
        """The output tuples, each a tuple of :class:`Row` in
        ``query.relations`` order, built on first access — under a lock,
        so only once, and with the cyclic collector paused (the tuples
        are acyclic) — a block at a time, each block let go once its
        tuples are built: a built result holds its tuples alone.  A
        build that raises part way keeps the tuples of the blocks it
        let go and the blocks it did not, so the result still reads
        whole, and the next access goes on from there."""
        tuples = self._tuples
        if tuples is not None:
            return tuples
        with self._lock:
            if self._tuples is None:
                built = self._tail
                with collector_paused():
                    # Built backwards — the last block first, its last
                    # record first — then reversed in place: blocks are
                    # committed in order, and what is freed at the top
                    # of the heap goes back to the system at once.
                    while self._blocks:
                        mark = len(built)
                        try:
                            self._blocks[-1].tuples(self.query.relations, built, reverse=True)
                        except BaseException:
                            del built[mark:]
                            raise
                        self._blocks.pop()
                    built.reverse()
                self._tuples, self._tail = built, []
            return self._tuples

    def blocks(self) -> List[IndexBlock]:
        """The output as tuple blocks whose members include every query
        relation: the committed parts while :attr:`tuples` is unbuilt,
        else one block over the tuples' own rows (a relation a member,
        rows repeating as the tuples repeat them)."""
        with self._lock:
            if self._tuples is None:
                tail = self._tail[::-1]
                return self._blocks + ([_held_block(self.query.relations, tail)] if tail else [])
            tuples = self._tuples
        return [_held_block(self.query.relations, tuples)] if tuples else []

    def __len__(self) -> int:
        return self._length

    def rid_columns(self) -> List[np.ndarray]:
        """Per query relation, each output tuple's member's rid — an
        int64 column, ``object`` where a rid does not fit one — in
        :meth:`tuple_ids` order."""
        columns, order = self._rid_order(self.blocks())
        return [column[order] for column in columns]

    def tuple_ids(self) -> List[Tuple[int, ...]]:
        """Sorted rid tuples (query relation order) — the canonical form
        used to compare two results for equality: one sort of the rid
        columns, each tuple built of its relations' shared rid objects
        (:meth:`~repro.core.schema.Relation.rid_objects`: ints made anew
        from an int64 column would cost more than the tuples that hold
        them)."""
        blocks = self.blocks()
        order = self._rid_order(blocks)[1]
        # Each column is let go once it is listed — the unsorted ones,
        # their sorted copies and the int64 columns are gone before the
        # tuples are built.
        return list(zip(*(
            column[order].tolist()
            for column in _member_columns(self.query.relations, blocks, Relation.rid_objects)
        )))

    def _rid_order(self, blocks: Sequence[IndexBlock]) -> Tuple[List[np.ndarray], np.ndarray]:
        """The rid columns of ``blocks`` in output order, and the order
        that sorts them."""
        columns = _member_columns(self.query.relations, blocks, Relation.rid_column)
        return columns, np.lexsort(columns[::-1])

    def same_output(self, other: "JoinResult") -> bool:
        """Whether two results produced exactly the same tuple set."""
        if len(self) != len(other):
            return False
        if not len(self):
            return True
        mine, theirs = self.rid_columns(), other.rid_columns()
        return len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))

    def __getstate__(self) -> Dict[str, Any]:
        # A block pickles as its record list; the result keeps its
        # columns.
        with self._lock:
            state = dict(self.__dict__, _blocks=[
                (block.names, block.relations, block.rows, block.labelled)
                for block in self._blocks
            ])
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        blocks = [
            IndexBlock(names, relations, rows, labelled=labelled)
            for names, relations, rows, labelled in state["_blocks"]
        ]
        self.__dict__.update(state, _blocks=blocks, _lock=threading.Lock())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JoinResult({self.metrics.algorithm}, {len(self)} tuples, "
            f"{self.metrics.num_cycles} cycles, "
            f"{self.metrics.shuffled_records} shuffled)"
        )


def _member_columns(
    names: Sequence[str],
    blocks: Sequence[IndexBlock],
    column_of: Callable[[Relation], np.ndarray],
) -> List[np.ndarray]:
    """Per member ``names``, ``column_of`` its relation taken at each
    record's member, in output order."""
    columns = []
    for name in names:
        taken = [column_of(relation)[at] for relation, at in (b.member(name) for b in blocks)]
        columns.append(np.concatenate(taken) if taken else np.empty(0, dtype=np.int64))
    return columns


def _held_block(names: Sequence[str], tuples: Sequence[Tuple[Row, ...]]) -> IndexBlock:
    """``tuples`` as one block: member ``name`` indexes a relation of
    the tuples' rows in its slot, in tuple order — their rows as they
    are, unchecked: a row repeats as the tuples repeat it."""
    arity = len(names)
    if set(map(len, tuples)) != {arity}:
        position = next(i for i, members in enumerate(tuples) if len(members) != arity)
        raise ValidationError(
            f"tuple #{position} has arity {len(tuples[position])}, expected {arity}"
        )
    relations = [Relation._of_rows(name, rows) for name, rows in zip(names, zip(*tuples))]
    index = np.broadcast_to(np.arange(len(tuples))[:, None], (len(tuples), arity))
    return IndexBlock(names, relations, index, labelled=False)
