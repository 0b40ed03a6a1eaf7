"""Multi-job pipelines.

The paper's algorithms span one to three MapReduce cycles (RCCIS: two;
PASM: three) and the cascade baselines chain one job per 2-way join.  A
:class:`Pipeline` runs a job sequence where later jobs read earlier jobs'
outputs, accumulating counters and per-job results for the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.mapreduce.counters import Counters
from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.options import RunOptions, resolve_options
from repro.mapreduce.runner import run_job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.cost import CostModel
    from repro.obs.recorder import Observer

__all__ = ["Pipeline", "PipelineResult"]


@dataclass
class PipelineResult:
    """Aggregated measurements of a job chain."""

    jobs: List[JobResult] = field(default_factory=list)

    @property
    def counters(self) -> Counters:
        merged = Counters()
        for job in self.jobs:
            merged.merge(job.counters)
        return merged

    @property
    def num_cycles(self) -> int:
        return len(self.jobs)

    @property
    def total_map_output_records(self) -> int:
        return sum(job.map_output_records for job in self.jobs)

    @property
    def total_shuffled_records(self) -> int:
        return sum(job.shuffled_records for job in self.jobs)

    @property
    def final_output(self) -> Optional[str]:
        return self.jobs[-1].output if self.jobs else None


class Pipeline:
    """Runs jobs in sequence against one file system.

    Jobs may be provided up front or generated lazily (a *stage factory*
    may inspect earlier results — e.g. the 2-way cascade needs to know the
    previous join's output path).
    """

    def __init__(
        self,
        fs: InMemoryFileSystem,
        observer: Optional["Observer"] = None,
        cost_model: Optional["CostModel"] = None,
        options: Optional[RunOptions] = None,
    ) -> None:
        self.fs = fs
        #: optional observer (a TraceRecorder) forwarded to every job run.
        self.observer = observer
        #: cost model used only to charge recorded spans.
        self.cost_model = cost_model
        #: how every job of the chain runs; resolved here (arguments
        #: absent, so ``$REPRO_*`` then defaults) when not handed down.
        self.options = options if options is not None else resolve_options()
        self.result = PipelineResult()

    def run(self, conf: JobConf) -> JobResult:
        """Run one job, recording it in the pipeline result."""
        job_result = run_job(
            self.fs,
            conf,
            observer=self.observer,
            cost_model=self.cost_model,
            options=self.options,
        )
        self.result.jobs.append(job_result)
        return job_result

    def child(self) -> "Pipeline":
        """A pipeline for a sub-plan (FCTS's RCCIS joins, FSTC's
        All-Matrix): its own in-memory file system and job list, the
        same observer, cost model and options."""
        return Pipeline(
            InMemoryFileSystem(), self.observer, self.cost_model, self.options
        )

    def run_all(self, confs: Sequence[JobConf]) -> PipelineResult:
        """Run a fixed job sequence."""
        for conf in confs:
            self.run(conf)
        return self.result
