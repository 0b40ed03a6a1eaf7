"""Post-run analysis of a trace: skew, stragglers, empty tasks.

The paper's Figure 4 is an argument about the *shape* of per-reducer
load; :class:`RunReport` turns a recorded run into exactly that
diagnosis.  For every executed job it summarises the physical
reduce-task load distribution with the Section-7 statistics
(:func:`repro.stats.metrics.load_balance`, Jain's index) and flags

* **skewed reducers** — tasks whose load exceeds
  :data:`IMBALANCE_THRESHOLD` times the mean, in jobs whose max/mean
  imbalance or Jain fairness crosses the thresholds (the All-Replicate
  hot-tail of Figure 4);
* **stragglers** — reduce tasks whose recorded wall-clock duration
  exceeds :data:`STRAGGLER_FACTOR` times the job's median task duration;
* **empty-output tasks** — tasks that received input but emitted
  nothing (wasted shuffle volume; grid cells that never join).

When the run executed under fault injection (:mod:`repro.faults`), the
report also aggregates a :class:`FaultSummary` — failed / retried
attempt counts from the ``faults`` counter group plus the wall-clock
spent in failed attempts (the ``kind="attempt"`` spans), i.e. the run's
retry overhead.

When the trace carries plan predictions (``kind="plan"`` spans, emitted
whenever :func:`repro.core.executor.execute` runs with an observer),
the report also joins them against the observed per-algorithm
quantities as :class:`~repro.obs.explain.PlanReconciliation` rows —
the predicted-vs-actual cost-model scorecard.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.span import Span
from repro.stats.metrics import LoadBalance, load_balance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.explain import PlanReconciliation

__all__ = ["TaskFlag", "JobLoadSummary", "FaultSummary", "RunReport"]

#: A job is skewed when its max/mean load passes this ...
IMBALANCE_THRESHOLD = 2.0
#: ... or its Jain fairness falls below this one.
FAIRNESS_THRESHOLD = 0.5
#: A reduce task straggles past this many times its job's median task.
STRAGGLER_FACTOR = 3.0
#: How many of a job's hottest logical reducer keys the report names.
TOP_KEYS = 5


@dataclass(frozen=True)
class TaskFlag:
    """One flagged reduce task.

    ``reason`` is ``"skew"``, ``"straggler"`` or ``"empty-output"``;
    ``detail`` is a human-readable explanation.
    """

    job: str
    task_index: int
    reason: str
    detail: str
    load: int = 0
    duration: float = 0.0


@dataclass
class FaultSummary:
    """Retry overhead of one traced run.

    Counter totals come from the ``faults`` group; ``attempt_spans`` and
    ``overhead_seconds`` aggregate the recorded ``kind="attempt"`` spans
    (failed attempts — the work that did not commit).
    """

    tasks_failed: int = 0
    tasks_retried: int = 0
    attempt_spans: int = 0
    overhead_seconds: float = 0.0

    @property
    def any_faults(self) -> bool:
        return self.tasks_failed > 0 or self.attempt_spans > 0


@dataclass
class JobLoadSummary:
    """Per-job load-balance diagnosis.

    ``hot_keys`` holds the top-k hottest logical reducer keys of the
    job's shuffle (``(repr(key), records)``, hottest first — the
    Figure-4 tail, named); ``replication`` is the job's replication
    factor (map output records ÷ map input records).
    """

    name: str
    balance: LoadBalance
    skewed: bool
    hot_tasks: List[int] = field(default_factory=list)
    hot_keys: List[Tuple[str, int]] = field(default_factory=list)
    replication: float = 0.0


class RunReport:
    """Skew/straggler/empty-task diagnosis of one traced run.

    Build with :meth:`from_spans` from a recorder's spans or a reloaded
    trace; ``flags`` holds every finding, ``jobs`` the per-job load
    summaries, and :meth:`render` a printable report.
    """

    def __init__(
        self,
        jobs: List[JobLoadSummary],
        flags: List[TaskFlag],
        faults: Optional[FaultSummary] = None,
        reconciliations: Sequence["PlanReconciliation"] = (),
    ) -> None:
        self.jobs = jobs
        self.flags = flags
        #: retry overhead; zeros on fault-free runs.
        self.faults = faults if faults is not None else FaultSummary()
        #: predicted-vs-observed plan scorecards, one per algorithm
        #: whose trace carried a prediction; empty without plan spans.
        self.reconciliations = list(reconciliations)

    # ------------------------------------------------------------------
    @classmethod
    def from_spans(cls, spans: Sequence[Span]) -> "RunReport":
        """Analyse a run's closed spans — a live recorder's ``spans`` or
        a reloaded JSONL trace, which give the same report."""
        reduce_tasks = cls._reduce_tasks_by_job(spans)
        jobs: List[JobLoadSummary] = []
        flags: List[TaskFlag] = []
        faults = FaultSummary()
        for span in spans:
            attrs = span.attributes
            # A job that failed closes its span without its facts.
            if span.kind != "job" or "reduce_task_loads" not in attrs:
                continue
            name = str(attrs.get("job", span.name))
            loads = list(attrs["reduce_task_loads"])
            balance = load_balance(dict(enumerate(loads)))
            skewed = len(loads) > 1 and (
                balance.imbalance > IMBALANCE_THRESHOLD
                or balance.fairness < FAIRNESS_THRESHOLD
            )
            framework = span.counters.get("framework", {})
            reads = framework.get("map_input_records", 0)
            summary = JobLoadSummary(
                name=name,
                balance=balance,
                skewed=skewed,
                hot_keys=[
                    (str(key), int(load))
                    for key, load in attrs.get("key_loads", ())[:TOP_KEYS]
                ],
                # Map output ÷ map input records: the per-job
                # replication factor of Tables 1-3.
                replication=(
                    framework.get("map_output_records", 0) / reads
                    if reads
                    else 0.0
                ),
            )
            if skewed and balance.mean_load > 0:
                for index, load in enumerate(loads):
                    if load > IMBALANCE_THRESHOLD * balance.mean_load:
                        summary.hot_tasks.append(index)
                        flags.append(
                            TaskFlag(
                                job=name,
                                task_index=index,
                                reason="skew",
                                detail=(
                                    f"load {load} is "
                                    f"{load / balance.mean_load:.1f}x the "
                                    f"mean ({balance.mean_load:.1f}); "
                                    f"Jain={balance.fairness:.3f}"
                                ),
                                load=load,
                            )
                        )
            for task in reduce_tasks.get(span.span_id, ()):
                load = task.attributes.get("input_records", 0)
                if load > 0 and task.attributes.get("output_records") == 0:
                    flags.append(
                        TaskFlag(
                            job=name,
                            task_index=int(task.attributes["task_index"]),
                            reason="empty-output",
                            detail=f"received {load} records, emitted none",
                            load=load,
                        )
                    )
            fault_counters = span.counters.get("faults", {})
            faults.tasks_failed += fault_counters.get("tasks_failed", 0)
            faults.tasks_retried += fault_counters.get("tasks_retried", 0)
            jobs.append(summary)

        for span in spans:
            if span.kind == "attempt":
                faults.attempt_spans += 1
                faults.overhead_seconds += span.duration
        flags.extend(cls._straggler_flags(spans))
        from repro.obs.explain import reconciliation_from_spans

        return cls(jobs, flags, faults, reconciliation_from_spans(spans))

    @staticmethod
    def _reduce_tasks_by_job(spans: Sequence[Span]) -> Dict[int, List[Span]]:
        """The committed reduce-task spans under each job span's id, in
        task order (task -> reduce phase -> job)."""
        phase_job = {
            span.span_id: span.parent_id
            for span in spans
            if span.kind == "phase" and span.name == "reduce"
        }
        by_job: Dict[int, List[Span]] = {}
        for span in spans:
            if span.kind == "task" and span.parent_id in phase_job:
                by_job.setdefault(phase_job[span.parent_id], []).append(span)
        for tasks in by_job.values():
            tasks.sort(key=lambda task: task.attributes.get("task_index", 0))
        return by_job

    @staticmethod
    def _straggler_flags(spans: Sequence[Span]) -> List[TaskFlag]:
        by_job: Dict[str, List[Span]] = {}
        for span in spans:
            if (
                span.kind == "task"
                and span.attributes.get("phase") == "reduce"
            ):
                by_job.setdefault(
                    str(span.attributes.get("job", "?")), []
                ).append(span)
        flags: List[TaskFlag] = []
        for job, task_spans in by_job.items():
            if len(task_spans) < 2:
                continue
            median = statistics.median(s.duration for s in task_spans)
            if median <= 0:
                continue
            for span in task_spans:
                if span.duration > STRAGGLER_FACTOR * median:
                    flags.append(
                        TaskFlag(
                            job=job,
                            task_index=int(
                                span.attributes.get("task_index", -1)
                            ),
                            reason="straggler",
                            detail=(
                                f"ran {span.duration * 1e3:.2f} ms, "
                                f"{span.duration / median:.1f}x the median "
                                f"task ({median * 1e3:.2f} ms)"
                            ),
                            duration=span.duration,
                        )
                    )
        return flags

    # ------------------------------------------------------------------
    @property
    def skewed_jobs(self) -> List[JobLoadSummary]:
        """Job summaries whose load distribution crossed a threshold."""
        return [job for job in self.jobs if job.skewed]

    @property
    def replication_factors(self) -> Dict[str, float]:
        """Per-job replication factor (``job name -> factor``)."""
        return {job.name: job.replication for job in self.jobs}

    def check_replication(
        self,
        baseline: Mapping[str, float],
        tolerance: float = 0.05,
    ) -> List[str]:
        """Flag jobs whose replication factor drifted from ``baseline``.

        ``baseline`` maps job names to expected factors (e.g. the stored
        ``benchmarks/replication_baseline.json``); a job regresses when
        ``|observed - expected| > tolerance * max(expected, 1)``.  Jobs
        absent from the baseline are ignored (new jobs are not
        regressions); returns human-readable flag strings, empty when
        everything is within tolerance.
        """
        flags: List[str] = []
        observed = self.replication_factors
        for name in sorted(baseline):
            if name not in observed:
                continue
            expected = float(baseline[name])
            actual = observed[name]
            allowed = tolerance * max(expected, 1.0)
            if abs(actual - expected) > allowed:
                flags.append(
                    f"replication regression in job {name}: "
                    f"expected {expected:.4f} +/- {allowed:.4f}, "
                    f"observed {actual:.4f}"
                )
        return flags

    def flags_for(
        self, reason: Optional[str] = None, job: Optional[str] = None
    ) -> List[TaskFlag]:
        """Flags filtered by reason and/or job name."""
        return [
            flag
            for flag in self.flags
            if (reason is None or flag.reason == reason)
            and (job is None or flag.job == job)
        ]

    def render(self) -> str:
        """A printable multi-line report."""
        lines: List[str] = ["run report"]
        for job in self.jobs:
            b = job.balance
            marker = "  !! skewed" if job.skewed else ""
            lines.append(
                f"  job {job.name}: {b.reducers} reduce tasks, "
                f"max={b.max_load}, mean={b.mean_load:.1f}, "
                f"p50={b.p50:.0f}, p95={b.p95:.0f}, "
                f"imbalance={b.imbalance:.2f}, gini={b.gini:.3f}, "
                f"Jain={b.fairness:.3f}, "
                f"replication={job.replication:.2f}{marker}"
            )
            if job.hot_keys:
                hottest = ", ".join(
                    f"{key}={load}" for key, load in job.hot_keys
                )
                lines.append(f"    hottest keys: {hottest}")
        if self.faults.any_faults:
            f = self.faults
            lines.append(
                f"  faults: {f.tasks_failed} failed, "
                f"{f.tasks_retried} retried; "
                f"{f.attempt_spans} non-committing attempts cost "
                f"{f.overhead_seconds * 1e3:.2f} ms"
            )
        if not self.flags:
            lines.append("  no flagged tasks")
        for flag in self.flags:
            lines.append(
                f"  [{flag.reason}] {flag.job} task {flag.task_index}: "
                f"{flag.detail}"
            )
        for reconciliation in self.reconciliations:
            lines.append("")
            lines.extend(
                "  " + line for line in reconciliation.render().splitlines()
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunReport({len(self.jobs)} jobs, {len(self.flags)} flags, "
            f"{len(self.skewed_jobs)} skewed)"
        )
