"""Job configuration and results for the MapReduce simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

from repro.mapreduce.counters import Counters
from repro.mapreduce.shuffle import HashPartitioner, Partitioner
from repro.mapreduce.task import Mapper, Reducer

__all__ = ["InputSpec", "JobConf", "JobResult"]


@dataclass
class InputSpec:
    """One input directory/file and the mapper that processes it.

    Mirrors Hadoop's ``MultipleInputs``: a multi-way join reads each
    relation from its own path with a relation-specific mapper.

    ``source`` is the base relation whose rows, in order, are the
    records at ``path`` (duck-typed: ``columns(attribute)``,
    ``row_column()``), whose own columns a columnar job then reads;
    ``None`` for an input an earlier job wrote.  Here, not on the mapper:
    a mapper is deep-copied or pickled per attempt, a spec never is.
    """

    path: str
    mapper: Mapper
    source: Optional[Any] = None


@dataclass
class JobConf:
    """Configuration of a single MapReduce job.

    Attributes
    ----------
    name:
        Human-readable job name (appears in results and logs).
    inputs:
        The input specs; every record of every input is mapped.
    reducer:
        The reduce function applied per key group.
    output:
        Output path; reduce task ``i`` writes ``output/part-{i:05d}``.
    num_reduce_tasks:
        Physical reduce parallelism (the paper uses 16).
    combiner:
        Optional map-side combiner (a :class:`Reducer` run per map task).
    partitioner:
        Key -> reduce-task routing; defaults to Hadoop-style hashing.
    """

    name: str
    inputs: List[InputSpec]
    reducer: Reducer
    output: str
    num_reduce_tasks: int = 16
    combiner: Optional[Reducer] = None
    partitioner: Partitioner = field(default_factory=HashPartitioner)


@dataclass
class JobResult:
    """Everything measured while running one job.

    Attributes
    ----------
    name:
        The job name from the configuration.
    counters:
        Merged framework + user counters.
    reduce_task_loads:
        Records received by each physical reduce task (index-aligned).
    logical_reducer_loads:
        Records received per intermediate key — the paper's notion of a
        reducer.  This is the distribution whose balance Section 7
        analyses.
    output:
        The output path written.
    output_records:
        Total records emitted by all reduce tasks.
    """

    name: str
    counters: Counters
    reduce_task_loads: List[int]
    logical_reducer_loads: Dict[Hashable, int]
    output: str
    output_records: int
    #: records emitted by each physical reduce task (index-aligned).
    reduce_task_outputs: List[int] = field(default_factory=list)
    #: ``work:comparisons`` performed by each physical reduce task.
    reduce_task_comparisons: List[int] = field(default_factory=list)
    #: the data plane the job ran on ("records" / "columnar").
    data_plane: str = "records"
    #: why it was the records plane (``None`` on the columnar plane).
    data_plane_reason: Optional[str] = None

    @property
    def map_output_records(self) -> int:
        """Intermediate pairs produced — the communication cost driver."""
        return self.counters.value("framework", "map_output_records")

    @property
    def shuffled_records(self) -> int:
        """Pairs crossing the map->reduce boundary (post-combiner)."""
        return self.counters.value("framework", "shuffle_records")

    @property
    def max_reduce_task_load(self) -> int:
        return max(self.reduce_task_loads, default=0)
