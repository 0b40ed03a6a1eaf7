"""A faithful in-process MapReduce simulator (the paper's Hadoop substrate).

Public surface:

* file systems — :class:`InMemoryFileSystem`, :class:`LocalFileSystem`
* programming model — :class:`Mapper`, :class:`KernelReducer`,
  :class:`MapContext`
* execution — :class:`JobConf`, :func:`run_job`, :class:`Pipeline`,
  the run options (:class:`RunOptions`, :func:`resolve_options`), the
  executor backends (:data:`EXECUTORS`, :func:`resolve_executor`,
  :func:`resolve_workers`, :func:`shutdown_worker_pools`)
* measurement — :class:`Counters`, :class:`CostModel`
"""

from repro.mapreduce.counters import Counters
from repro.mapreduce.cost import DEFAULT_COST_MODEL, CostModel
from repro.mapreduce.fs import FileSystem, InMemoryFileSystem, LocalFileSystem
from repro.mapreduce.job import InputSpec, JobConf, JobResult
from repro.mapreduce.options import (
    EXECUTORS,
    RunOptions,
    resolve_executor,
    resolve_options,
    resolve_workers,
)
from repro.mapreduce.pipeline import Pipeline, PipelineResult
from repro.mapreduce.runner import run_job, shutdown_worker_pools
from repro.mapreduce.shuffle import (
    HashPartitioner,
    Partitioner,
    RoundRobinKeyPartitioner,
    stable_hash,
)
from repro.mapreduce.task import KernelReducer, MapContext, Mapper

__all__ = [
    "Counters",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "FileSystem",
    "InMemoryFileSystem",
    "LocalFileSystem",
    "InputSpec",
    "JobConf",
    "JobResult",
    "Pipeline",
    "PipelineResult",
    "run_job",
    "RunOptions",
    "resolve_options",
    "EXECUTORS",
    "resolve_executor",
    "resolve_workers",
    "shutdown_worker_pools",
    "HashPartitioner",
    "Partitioner",
    "RoundRobinKeyPartitioner",
    "stable_hash",
    "KernelReducer",
    "MapContext",
    "Mapper",
]
