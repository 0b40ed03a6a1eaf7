"""Run options: the six values that say *how* a job runs, resolved once.

``executor``, ``workers``, the fault plan, ``max_attempts``,
``speculative`` and ``task_timeout`` never change *what* a job computes —
outputs and counters are bit-identical across all of them — so they
travel together as one frozen :class:`RunOptions`, resolved exactly once
per :func:`~repro.core.executor.execute` / direct
:func:`~repro.mapreduce.runner.run_job` call and passed down as a single
``options`` argument (``execute -> algorithm.run -> Pipeline -> run_job``).

Every value follows the same precedence — explicit argument, else its
``$REPRO_*`` environment variable (how CI forces a whole test run onto
one configuration), else the default — implemented by one helper,
:func:`_setting`.  This module is the only place that reads
``os.environ`` for run options, and nothing writes it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.errors import MapReduceError
from repro.faults import (
    DEFAULT_MAX_ATTEMPTS,
    FAULTS_ENV,
    MAX_ATTEMPTS_ENV,
    SPECULATIVE_ENV,
    TASK_TIMEOUT_ENV,
    FaultPlan,
    ResolvedFaults,
)

__all__ = [
    "EXECUTORS",
    "EXECUTOR_ENV",
    "WORKERS_ENV",
    "RunOptions",
    "resolve_options",
    "resolve_executor",
    "resolve_workers",
    "resolve_faults",
]

#: The recognised execution backends.
EXECUTORS = ("serial", "threads", "processes")

EXECUTOR_ENV = "REPRO_EXECUTOR"
WORKERS_ENV = "REPRO_WORKERS"

#: Default worker-count ceiling — beyond this, per-task pickling overhead
#: dominates on the workloads the simulator runs.
_DEFAULT_WORKERS_CAP = 8


def _setting(
    explicit: Any,
    env: str,
    parse: Callable[[str], Any],
    expected: str,
    default: Any,
) -> Any:
    """One run option: ``explicit`` if given, else ``parse($env)`` if the
    variable is set, else ``default``."""
    if explicit is not None:
        return explicit
    text = os.environ.get(env, "").strip()
    if not text:
        return default
    try:
        return parse(text)
    except ValueError:
        raise MapReduceError(f"{env} must be {expected}, got {text!r}") from None


def resolve_executor(executor: Optional[str] = None) -> str:
    """The effective executor name: explicit argument, else
    ``$REPRO_EXECUTOR``, else ``"serial"``.  Unknown names raise."""
    name = _setting(
        executor, EXECUTOR_ENV, str, f"one of {EXECUTORS}", "serial"
    )
    if name not in EXECUTORS:
        raise MapReduceError(
            f"unknown executor {name!r}; expected one of {EXECUTORS}"
        )
    return name


def _positive_int(what: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MapReduceError(
            f"{what} must be a positive integer, got {value!r}"
        )
    return value


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit argument, else
    ``$REPRO_WORKERS``, else ``min(cpu_count, 8)``.  Must be >= 1."""
    return _positive_int("workers", _setting(
        workers, WORKERS_ENV, int, "an integer",
        min(os.cpu_count() or 1, _DEFAULT_WORKERS_CAP),
    ))


def _parse_bool(text: str) -> bool:
    return text.lower() in ("1", "true", "yes", "on")


def resolve_faults(
    faults: Union[None, bool, int, str, Any] = None,
    max_attempts: Optional[int] = None,
    speculative: Optional[bool] = None,
    task_timeout: Optional[float] = None,
) -> ResolvedFaults:
    """The effective fault configuration: explicit arguments win
    over the environment, the environment over the fault-free default.

    ``faults`` may be ``None`` (defer to ``$REPRO_FAULTS``), ``False``
    (no plan, and the environment's retry budget and task timeout are
    ignored too — the fail-fast configuration regardless of what CI
    exported), an integer seed, a spec string (see
    :meth:`FaultPlan.parse`), or any plan object exposing
    ``events_for``.  ``max_attempts`` defaults to
    ``$REPRO_MAX_ATTEMPTS``, then :data:`DEFAULT_MAX_ATTEMPTS` when a
    plan is active, else 1 (fail fast).  ``speculative`` defaults to
    ``$REPRO_SPECULATIVE``, then off.  ``task_timeout`` defaults to
    ``$REPRO_TASK_TIMEOUT``, then unlimited.
    """
    if faults is None:
        faults = _setting(None, FAULTS_ENV, FaultPlan.parse, "a fault spec", None)
    if faults is None or faults is False:
        plan: Optional[Any] = None
    elif isinstance(faults, (int, str)):
        plan = FaultPlan.parse(faults)
    elif hasattr(faults, "events_for"):
        plan = faults
    else:
        raise MapReduceError(
            f"faults must be a seed, a spec string, a plan, False or None; "
            f"got {faults!r}"
        )
    if faults is False:
        if max_attempts is None:
            max_attempts = 1
    else:
        max_attempts = _setting(
            max_attempts, MAX_ATTEMPTS_ENV, int, "an integer",
            DEFAULT_MAX_ATTEMPTS if plan is not None else 1,
        )
        task_timeout = _setting(
            task_timeout, TASK_TIMEOUT_ENV, float, "a number of seconds", None
        )
    if task_timeout is not None and (
        isinstance(task_timeout, bool) or task_timeout <= 0
    ):
        raise MapReduceError(
            f"task_timeout must be a positive number of seconds, "
            f"got {task_timeout!r}"
        )
    return ResolvedFaults(
        plan=plan,
        max_attempts=_positive_int("max_attempts", max_attempts),
        speculative=bool(
            _setting(speculative, SPECULATIVE_ENV, _parse_bool, "a boolean", False)
        ),
        task_timeout=(
            float(task_timeout) if task_timeout is not None else None
        ),
    )


@dataclass(frozen=True)
class RunOptions:
    """How jobs run — resolved, validated, immutable.

    ``faults`` bundles the fault plan, ``max_attempts``, ``speculative``
    and ``task_timeout`` (plus the fixed backoff constants) in the shape
    the task-attempt loop consumes.
    """

    executor: str = "serial"
    workers: int = 1
    faults: ResolvedFaults = ResolvedFaults()


def resolve_options(
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    faults: Any = None,
    max_attempts: Optional[int] = None,
    speculative: Optional[bool] = None,
    task_timeout: Optional[float] = None,
) -> RunOptions:
    """Resolve and validate all six run options in one place (each
    ``None`` defers to its ``$REPRO_*`` variable, then the default)."""
    return RunOptions(
        executor=resolve_executor(executor),
        workers=resolve_workers(workers),
        faults=resolve_faults(faults, max_attempts, speculative, task_timeout),
    )
