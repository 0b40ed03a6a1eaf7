"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidIntervalError(ReproError, ValueError):
    """Raised when an interval's end point precedes its start point."""


class InvalidPartitioningError(ReproError, ValueError):
    """Raised when a partitioning is empty, unsorted, or non-contiguous."""


class UnknownPredicateError(ReproError, KeyError):
    """Raised when a predicate name does not denote an Allen relation."""


class QueryError(ReproError, ValueError):
    """Raised for malformed join queries (unknown relations, bad predicates,
    missing attributes, or contradictory conditions)."""


class UnsatisfiableQueryError(QueryError):
    """Raised when reasoning proves a query can never produce output.

    For example two conditions that enforce opposite less-than orders
    between the same pair of relations, or an Allen path-consistency
    contradiction.
    """


class PlanningError(ReproError, ValueError):
    """Raised when no algorithm can execute the given query class."""


class MapReduceError(ReproError, RuntimeError):
    """Raised when a simulated MapReduce job fails."""


class FileSystemError(MapReduceError):
    """Raised for errors in the simulated distributed file system."""


class FaultInjectedError(MapReduceError):
    """Raised when a :mod:`repro.faults` plan injects a failure into a
    task attempt.

    Carries the event ``kind`` (``"crash"`` / ``"corrupt-output"``) and
    the lifecycle ``point`` it fired at.  Within the retry budget these
    are caught by the task-attempt loop and the attempt is re-run; past
    the budget they propagate like any other task failure.
    """

    def __init__(self, kind: str, point: str) -> None:
        super().__init__(f"injected {kind} fault at {point}")
        self.kind = kind
        self.point = point

    def __reduce__(self):  # crosses process-pool boundaries intact
        return (type(self), (self.kind, self.point))


class WorkerPoolError(MapReduceError):
    """Raised when the ``processes`` executor's worker pool breaks.

    Unlike a bare pool failure this records *what was in flight*: the
    job name, the phase, and the task indices whose results had not been
    received when the pool died (with chunked dispatch this is the whole
    submitted batch — the pool cannot say which chunk crashed it).
    """

    def __init__(self, job: str, phase: str, pending_tasks, cause: str) -> None:
        pending = tuple(pending_tasks)
        shown = ", ".join(map(str, pending[:8]))
        if len(pending) > 8:
            shown += f", … ({len(pending)} total)"
        super().__init__(
            f"worker pool crashed during the {phase} phase of job {job!r} "
            f"(pending task indices: [{shown}]): {cause}"
        )
        self.job = job
        self.phase = phase
        self.pending_tasks = pending
        self.cause = cause


class WorkloadError(ReproError, ValueError):
    """Raised for invalid workload-generator configurations."""
