"""Deterministic fault injection for the MapReduce simulator.

The paper's algorithms inherit Hadoop's task-level fault tolerance: a
failed map or reduce *attempt* is simply re-executed.  That only works
because tasks are independently re-executable — re-running an attempt
must not change the job's output.  This module supplies the machinery to
*test* that property:

* :class:`FaultPlan` — a seeded, fully deterministic schedule of
  ``crash`` / ``corrupt-output`` events.  Every draw comes from an
  explicit :class:`random.Random` keyed by a BLAKE2 hash of
  ``(seed, job, phase, task_index)`` — never the ``random`` module's
  global state — so the same seed produces the same event schedule on
  every run, every executor, and every platform, and two concurrent
  runs cannot perturb each other.
* :class:`ScriptedFaultPlan` — an explicit per-attempt event table for
  tests that need a fault in one precise place (a ``cleanup()``
  hook, a commit).
* :class:`ResolvedFaults` — the plan and retry budget of one run, in
  the shape the runner's task-attempt loop consumes.
  :mod:`repro.mapreduce.options` resolves it from explicit arguments and
  the ``REPRO_FAULTS`` / ``REPRO_MAX_ATTEMPTS`` environment variables
  (how CI runs the whole suite under chaos).

The contract, pinned by the fault-parity tests: any fault plan whose
per-task failure count stays below ``max_attempts`` yields output
tuples, part files and counters (modulo the ``faults`` counter group)
bit-identical to a fault-free run, under every executor.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import FaultInjectedError, MapReduceError

__all__ = [
    "CRASH",
    "CORRUPT",
    "INJECTION_POINTS",
    "FAULTS_GROUP",
    "FAULTS_ENV",
    "MAX_ATTEMPTS_ENV",
    "FaultEvent",
    "FaultPlan",
    "ScriptedFaultPlan",
    "AttemptInjector",
    "ResolvedFaults",
]

#: Event kinds.
CRASH = "crash"
CORRUPT = "corrupt-output"

#: Where a crash may fire during an attempt's lifecycle.
INJECTION_POINTS = ("setup", "cleanup", "commit")

#: Counter group used for fault bookkeeping (``tasks_failed``,
#: ``tasks_retried``).  Kept out of ``framework`` so a chaos run's
#: counters equal a fault-free run's "modulo the faults group".
FAULTS_GROUP = "faults"

#: Environment variables :mod:`repro.mapreduce.options` consults (how CI
#: forces a chaos configuration onto a whole test run).
FAULTS_ENV = "REPRO_FAULTS"
MAX_ATTEMPTS_ENV = "REPRO_MAX_ATTEMPTS"

#: Attempts per task when a fault plan is active and nothing says
#: otherwise (Hadoop's ``mapreduce.map.maxattempts`` defaults to 4; the
#: simulator's plans default to at most 2 failures per task, so 3 always
#: suffices).
DEFAULT_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault in one task attempt.

    ``kind`` is :data:`CRASH` or :data:`CORRUPT`; ``point`` locates
    crashes in the attempt lifecycle (see :data:`INJECTION_POINTS`).
    """

    kind: str
    point: str = "setup"

    def __post_init__(self) -> None:
        if self.kind not in (CRASH, CORRUPT):
            raise MapReduceError(f"unknown fault kind {self.kind!r}")
        if self.kind == CRASH and self.point not in INJECTION_POINTS:
            raise MapReduceError(
                f"unknown injection point {self.point!r}; "
                f"expected one of {INJECTION_POINTS}"
            )


class FaultPlan:
    """A seeded, deterministic schedule of per-task fault events.

    For every task identity ``(job, phase, task_index)`` the plan draws
    — from an RNG seeded by ``blake2b(seed, identity)``, never the
    global ``random`` state — whether the task fails, how many attempts
    fail (1..``max_failures_per_task``), whether the failure is a
    ``crash`` (raised before any user code runs) or ``corrupt-output``
    (detected when the attempt commits, after the task body ran).

    Because the draw depends only on the seed and the task identity, the
    schedule is reproducible across runs, platforms and executors — the
    property the ``FaultPlan`` reproducibility tests pin.

    Parameters
    ----------
    seed:
        The explicit RNG seed.
    crash_rate / corrupt_rate:
        Probability that a task's failing attempts crash / corrupt.
        Their sum is the per-task failure probability.
    max_failures_per_task:
        Upper bound on failing attempts per task; any ``max_attempts``
        strictly greater than this is guaranteed to stay within the
        retry budget.
    """

    def __init__(
        self,
        seed: int,
        *,
        crash_rate: float = 0.15,
        corrupt_rate: float = 0.05,
        max_failures_per_task: int = 2,
    ) -> None:
        for name, rate in (
            ("crash_rate", crash_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise MapReduceError(f"{name} must be in [0, 1], got {rate!r}")
        if crash_rate + corrupt_rate > 1.0:
            raise MapReduceError("crash_rate + corrupt_rate must not exceed 1")
        if max_failures_per_task < 1:
            raise MapReduceError("max_failures_per_task must be >= 1")
        self.seed = int(seed)
        self.crash_rate = crash_rate
        self.corrupt_rate = corrupt_rate
        self.max_failures_per_task = max_failures_per_task

    # ------------------------------------------------------------------
    def _task_rng(self, job: str, phase: str, task_index: int) -> random.Random:
        digest = hashlib.blake2b(
            repr((self.seed, str(job), str(phase), int(task_index))).encode(),
            digest_size=8,
        ).digest()
        return random.Random(int.from_bytes(digest, "big"))

    def events_for(
        self, job: str, phase: str, task_index: int, attempt: int
    ) -> Tuple[FaultEvent, ...]:
        """The fault events injected into one task attempt.

        Deterministic in ``(seed, job, phase, task_index, attempt)``;
        attempts beyond the task's drawn failure count get no failure
        event, which is why a sufficient retry budget always converges.
        """
        rng = self._task_rng(job, phase, task_index)
        failure_draw = rng.random()
        if failure_draw >= self.crash_rate + self.corrupt_rate:
            return ()
        if attempt >= rng.randint(1, self.max_failures_per_task):
            return ()
        if failure_draw >= self.crash_rate:
            return (FaultEvent(CORRUPT, "commit"),)
        return (FaultEvent(CRASH, "setup"),)

    def schedule(
        self, job: str, phase: str, task_index: int, max_attempts: int
    ) -> Tuple[Tuple[FaultEvent, ...], ...]:
        """The full per-attempt event schedule of one task (testing aid)."""
        return tuple(
            self.events_for(job, phase, task_index, attempt)
            for attempt in range(max_attempts)
        )

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: Union[str, int]) -> "FaultPlan":
        """Build a plan from a ``$REPRO_FAULTS``-style spec string.

        Either a bare integer seed (``"42"``) or
        ``"42:crash=0.3,corrupt=0.1,max_failures=2"``.
        """
        if isinstance(spec, int):
            return cls(spec)
        text = str(spec).strip()
        seed_part, _, options = text.partition(":")
        try:
            seed = int(seed_part)
        except ValueError:
            raise MapReduceError(
                f"{FAULTS_ENV} seed must be an integer, got {seed_part!r}"
            ) from None
        kwargs: Dict[str, Any] = {}
        keys = {
            "crash": ("crash_rate", float),
            "corrupt": ("corrupt_rate", float),
            "max_failures": ("max_failures_per_task", int),
        }
        if options:
            for item in options.split(","):
                key, _, value = item.partition("=")
                key = key.strip()
                if key not in keys:
                    raise MapReduceError(
                        f"unknown fault option {key!r}; known: {sorted(keys)}"
                    )
                name, cast = keys[key]
                try:
                    kwargs[name] = cast(value)
                except ValueError:
                    raise MapReduceError(
                        f"fault option {key!r} needs a {cast.__name__}, "
                        f"got {value!r}"
                    ) from None
        return cls(seed, **kwargs)

    def describe(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, crash={self.crash_rate}, "
            f"corrupt={self.corrupt_rate}, "
            f"max_failures={self.max_failures_per_task})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class ScriptedFaultPlan:
    """An explicit fault schedule keyed by task attempt.

    ``events`` maps ``(job, phase, task_index, attempt)`` to the fault
    events of that attempt.  Used by tests that need a crash in one
    precise lifecycle point — e.g. inside a ``cleanup()`` hook — rather than a statistically generated schedule.
    """

    def __init__(
        self,
        events: Mapping[
            Tuple[str, str, int, int], Sequence[FaultEvent]
        ],
    ) -> None:
        self._events = {
            key: tuple(value) for key, value in events.items()
        }

    def events_for(
        self, job: str, phase: str, task_index: int, attempt: int
    ) -> Tuple[FaultEvent, ...]:
        return self._events.get((job, phase, task_index, attempt), ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScriptedFaultPlan({len(self._events)} scripted attempts)"


class AttemptInjector:
    """Carries one attempt's fault events into the task body.

    The runner checks the ``setup`` and ``commit`` points itself; the
    task core calls :meth:`check` at the ``cleanup`` point so crashes
    scripted there surface *inside* a user-code lifecycle hook — and are retried like any other task failure, not
    silently swallowed.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events = tuple(events)

    def check(self, point: str) -> None:
        """Raise :class:`FaultInjectedError` if a crash targets ``point``."""
        for event in self.events:
            if event.kind == CRASH and event.point == point:
                raise FaultInjectedError(CRASH, point)

    def corrupts_output(self) -> bool:
        return any(e.kind == CORRUPT for e in self.events)


@dataclass(frozen=True)
class ResolvedFaults:
    """The effective fault configuration of one job run.

    ``plan`` is any object with an ``events_for(job, phase, task_index,
    attempt)`` method, or ``None``.  ``max_attempts`` is the retry
    budget per task: a failed attempt is re-run at once, and once the
    budget is spent the task's original exception propagates.
    """

    plan: Optional[Any] = None
    max_attempts: int = 1

    def events_for(
        self, job: str, phase: str, task_index: int, attempt: int
    ) -> Tuple[FaultEvent, ...]:
        if self.plan is None:
            return ()
        return tuple(self.plan.events_for(job, phase, task_index, attempt))
