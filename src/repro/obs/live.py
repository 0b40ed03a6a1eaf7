"""Live run telemetry: the heartbeat bus and everything built on it.

Every other observability surface (traces, the dashboard, EXPLAIN
reconciliation, the profiler) is post-hoc — nothing is visible until the
run ends.  This module supplies the *live* path the paper's Hadoop
setting assumes.  The :class:`TelemetryHub` is a sink of the recorder's
span stream: ``job`` and ``phase`` spans opening and closing give it the
run's structure (a phase span carries its task count as ``tasks=``) and
the ``plan`` span the analytic prediction.  What no span can carry —
progress *inside* a task — arrives as :class:`Heartbeat` events (phase,
task index, attempt, records processed, last-progress timestamp) that
running tasks emit over one of two channels —

* in-process (``serial`` *and* ``threads``) — a direct call into
  :meth:`TelemetryHub.ingest`, which any thread may make;
* across a process boundary (``processes``) — a multiprocessing manager
  queue (the picklable form of ``multiprocessing.Queue``; a raw
  ``mp.Queue`` cannot travel inside an existing pool's task payloads)
  drained by a collector thread.  Nobody selects it: a beat switches to
  the queue when it is *pickled*, which is exactly when it crosses into
  a worker.

On top of the hub:

* **progress + ETA** — the analytic ``predict()`` tier supplies
  per-cycle work weights (records read, shuffled records); the hub
  scales them by the observed per-phase completion fractions and
  extrapolates the remaining wall time.  Rendered by ``repro top`` and
  ``repro run --progress``.
* **observed-straggler watchdog** — a daemon thread flags tasks whose
  heartbeats stall past ``LiveConfig.stall_seconds``; with
  ``--speculative`` the runner launches backup attempts for flagged
  tasks through the *same* speculation path scripted fault plans use.
* **live HTTP endpoint** — :class:`StatusServer` (stdlib
  ``http.server`` on a daemon thread; ``repro run --serve-status PORT``)
  serves ``/metrics`` (Prometheus text), ``/progress`` (JSON snapshot)
  and ``/`` (the HTML dashboard rendered from in-flight spans).

All live families live in the ``live`` metric group, which — like
``wall`` and ``profile`` — is excluded from parity fingerprints: the
heartbeat cadence is wall-clock-driven and therefore machine-dependent.
The passivity contract is pinned by
``tests/integration/test_live_parity.py``: with telemetry off the run is
bit-identical to an unobserved one; with it on, output tuples and
run-group metrics stay bit-identical across all three executors.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ReproError
from repro.gc_pause import collector_paused
from repro.obs.metrics import GROUP_LIVE, MetricsRegistry
from repro.obs.sinks import TraceSink
from repro.obs.span import Span

__all__ = [
    "LIVE_ENV",
    "LIVE_STALL_ENV",
    "LiveConfig",
    "resolve_live",
    "Heartbeat",
    "TaskBeat",
    "TelemetryHub",
    "StatusServer",
    "ProgressPrinter",
    "fetch_progress",
    "render_progress_line",
    "render_top",
]

#: Environment switches (how CI runs a whole suite with live telemetry).
LIVE_ENV = "REPRO_LIVE"
LIVE_STALL_ENV = "REPRO_LIVE_STALL"

_FALSEY = ("", "0", "false", "no", "off")

#: Heartbeat event kinds.
BEAT_START = "start"
BEAT_PROGRESS = "progress"
BEAT_FINISH = "finish"


@dataclass(frozen=True)
class LiveConfig:
    """Tuning knobs of the live telemetry path.

    ``stall_seconds`` is the watchdog threshold: a running task whose
    last heartbeat is older than this is flagged as an observed
    straggler.  ``poll_interval`` is the watchdog/publisher cadence;
    ``heartbeat_interval`` throttles in-task progress beats (start and
    finish always emit).
    """

    stall_seconds: float = 5.0
    poll_interval: float = 0.05
    heartbeat_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.stall_seconds <= 0:
            raise ReproError("stall_seconds must be positive")
        if self.poll_interval <= 0 or self.heartbeat_interval < 0:
            raise ReproError("live intervals must be positive")


def _env_stall() -> float:
    text = os.environ.get(LIVE_STALL_ENV, "").strip()
    if not text:
        return LiveConfig.stall_seconds
    try:
        return float(text)
    except ValueError:
        raise ReproError(
            f"{LIVE_STALL_ENV} must be a number of seconds, got {text!r}"
        ) from None


def resolve_live(explicit: Any = None) -> Optional[LiveConfig]:
    """Resolve the live-telemetry configuration, or ``None`` for off.

    ``explicit`` wins when not ``None``: ``False`` forces off, ``True``
    enables the defaults (honouring ``$REPRO_LIVE_STALL``), a number is
    a stall threshold in seconds, and a :class:`LiveConfig` is adopted
    as-is.  Otherwise ``$REPRO_LIVE`` decides — mirroring
    :func:`repro.obs.profile.resolve_profile` precedence exactly.
    """
    if isinstance(explicit, LiveConfig):
        return explicit
    if explicit is not None:
        if explicit is False:
            return None
        if explicit is True:
            return LiveConfig(stall_seconds=_env_stall())
        if isinstance(explicit, (int, float)):
            return LiveConfig(stall_seconds=float(explicit))
        value = str(explicit).strip().lower()
        if value in _FALSEY:
            return None
        return LiveConfig(stall_seconds=_env_stall())
    value = os.environ.get(LIVE_ENV, "").strip().lower()
    if value in _FALSEY:
        return None
    return LiveConfig(stall_seconds=_env_stall())


# ----------------------------------------------------------------------
# The heartbeat event and its emission channels.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Heartbeat:
    """One per-task liveness event.

    ``records`` is the cumulative records processed by the attempt so
    far (``None`` for a bare liveness ping); ``timestamp`` is the
    emitter's ``time.monotonic()`` — the hub additionally stamps arrival
    time, which is what staleness checks use, so cross-process clock
    skew cannot fake a stall.
    """

    kind: str
    job: str
    phase: str
    task_index: int
    attempt: int
    records: Optional[int]
    timestamp: float


class _DirectChannel:
    """In-process: heartbeats call straight into the hub, from whichever
    thread runs the task.  Pickling one — a beat riding a task payload
    into a pool worker — yields the worker's end of the hub's manager
    queue instead, created on first use."""

    __slots__ = ("_hub",)

    def __init__(self, hub: "TelemetryHub") -> None:
        self._hub = hub

    def send(self, beat: Heartbeat) -> None:
        self._hub.ingest(beat)

    def __reduce__(self) -> Tuple[Any, ...]:
        return _WorkerChannel, (self._hub.worker_queue(),)


class _WorkerChannel:
    """The channel as a pool worker unpickles it: heartbeats enqueue on
    the hub's manager queue and its collector thread drains them.

    Every unpickled channel wraps its own manager-queue proxy, and the
    stdlib tracks a process's proxies of one queue as a *set* of ids:
    when any one of them is finalised the set empties and the process's
    connection to the manager is closed — under the others.  Task bodies
    do leave beats in cyclic garbage (a reducer's recursive closure
    keeping its context alive), so an earlier attempt's proxy can be
    finalised by a collection that an allocation inside this attempt's
    ``put`` triggers, and the send fails on a closed connection.  The
    collector is therefore kept out of the ``put``; a proxy finalised at
    any other time only makes the next ``put`` reconnect.
    """

    __slots__ = ("_queue",)

    def __init__(self, q: Any) -> None:
        self._queue = q

    def send(self, beat: Heartbeat) -> None:
        with collector_paused():
            self._queue.put(beat)


class TaskBeat:
    """The heartbeat emitter handed to one task attempt.

    ``start()``/``finish()`` always emit; ``progress()`` is throttled to
    one event per ``interval`` seconds so a tight map loop costs one
    clock read per call, not one queue put.  Picklable whenever its
    channel is, so the same object rides a ``processes`` payload into
    the worker.
    """

    __slots__ = (
        "channel", "job", "phase", "task_index", "attempt",
        "interval", "_last",
    )

    def __init__(
        self,
        channel: Any,
        job: str,
        phase: str,
        task_index: int,
        attempt: int = 0,
        interval: float = 0.05,
    ) -> None:
        self.channel = channel
        self.job = job
        self.phase = phase
        self.task_index = task_index
        self.attempt = attempt
        self.interval = interval
        self._last = 0.0

    def __getstate__(self) -> Tuple[Any, ...]:
        return (
            self.channel, self.job, self.phase, self.task_index,
            self.attempt, self.interval, self._last,
        )

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        (
            self.channel, self.job, self.phase, self.task_index,
            self.attempt, self.interval, self._last,
        ) = state

    def _emit(self, kind: str, records: Optional[int]) -> None:
        now = time.monotonic()
        self._last = now
        self.channel.send(
            Heartbeat(
                kind, self.job, self.phase, self.task_index,
                self.attempt, records, now,
            )
        )

    def start(self) -> None:
        self._emit(BEAT_START, 0)

    def progress(self, records: Optional[int] = None, force: bool = False) -> None:
        if not force and time.monotonic() - self._last < self.interval:
            return
        self._emit(BEAT_PROGRESS, records)

    def finish(self, records: Optional[int] = None) -> None:
        self._emit(BEAT_FINISH, records)

    def for_attempt(self, attempt: int) -> "TaskBeat":
        """The same task identity, re-bound to a new attempt number."""
        return TaskBeat(
            self.channel, self.job, self.phase, self.task_index,
            attempt, self.interval,
        )


# ----------------------------------------------------------------------
# Driver-side state.
# ----------------------------------------------------------------------

@dataclass
class _TaskState:
    attempt: int = 0
    records: int = 0
    last_seen: float = 0.0
    started: bool = False
    finished: bool = False


@dataclass
class _PhaseState:
    total: int = 0
    done: int = 0
    finished: bool = False


@dataclass
class _JobState:
    name: str
    order: int
    phases: "Dict[str, _PhaseState]" = field(default_factory=dict)
    finished: bool = False


class TelemetryHub(TraceSink):
    """The driver-side heartbeat collector, progress model and watchdog.

    Strictly additive: the hub only *reads* the run (heartbeats, the
    job/phase/plan spans it receives as a sink) and *writes* the
    ``live`` metric group — never counters, spans or outputs.  All state
    mutations take the hub lock; the watchdog is a daemon thread that
    both flags observed stragglers and republishes the progress gauges
    every ``poll_interval``.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        config: Optional[LiveConfig] = None,
    ) -> None:
        self.config = config or LiveConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._closed = threading.Event()
        self._started_at = time.monotonic()
        self._jobs: "Dict[str, _JobState]" = {}
        self._tasks: Dict[Tuple[str, str, int], _TaskState] = {}
        self._stalled: "set[Tuple[str, str, int]]" = set()
        self._plan: Optional[Dict[str, Any]] = None
        self._first_eta: Optional[float] = None
        self._last_eta: Optional[float] = None
        self._heartbeats = 0
        self._manager: Optional[Any] = None
        self._mp_q: Optional[Any] = None
        self._collector: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "TelemetryHub":
        """Start the watchdog; the collector thread starts lazily, with
        the manager queue."""
        if self._watchdog is None:
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-live-watchdog", daemon=True
            )
            self._watchdog.start()
        return self

    def close(self) -> None:
        """Stop the watchdog and the collector, drain the queue, publish
        the final ETA-vs-actual gauges."""
        if self._closed.is_set():
            return
        self._closed.set()
        for thread in (self._watchdog, self._collector):
            if thread is not None:
                thread.join(timeout=2.0)
        # Late beats that raced the collector shutdown.
        self._drain(self._mp_q)
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
        with self._lock:
            self._publish_locked(time.monotonic())
            elapsed = time.monotonic() - self._started_at
            final = self.metrics.gauge(
                "repro_live_run_seconds",
                "Final ETA-vs-actual accounting: the run's actual wall "
                "seconds, the analytic prediction, and the first live "
                "ETA computed.",
                labels=("kind",),
                group=GROUP_LIVE,
            )
            final.set(elapsed, kind="actual")
            if self._plan is not None:
                final.set(
                    float(self._plan.get("modelled_seconds", 0.0)),
                    kind="predicted",
                )
            if self._first_eta is not None:
                final.set(self._first_eta, kind="eta_initial")

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def _drain(self, q: Optional[Any]) -> None:
        if q is None:
            return
        while True:
            try:
                self.ingest(q.get_nowait())
            except queue.Empty:
                return
            except (OSError, EOFError, BrokenPipeError):
                return  # manager already gone

    def _collect(self, q: Any) -> None:
        while True:
            try:
                beat = q.get(timeout=self.config.poll_interval)
            except queue.Empty:
                if self._closed.is_set():
                    return
                continue
            except (OSError, EOFError, BrokenPipeError):
                return
            self.ingest(beat)

    # -- channels --------------------------------------------------------
    def worker_queue(self) -> Any:
        """The manager queue a pickled beat reports over, created — with
        its manager process and collector thread — the first time a
        beat is pickled."""
        with self._lock:
            if self._mp_q is None:
                import multiprocessing

                self._manager = multiprocessing.Manager()
                self._mp_q = self._manager.Queue()
                self._collector = threading.Thread(
                    target=self._collect, args=(self._mp_q,),
                    name="repro-live-collector", daemon=True,
                )
                self._collector.start()
            return self._mp_q

    def task_beat(
        self, job: str, phase: str, task_index: int, attempt: int = 0
    ) -> TaskBeat:
        """A :class:`TaskBeat` bound to one task attempt."""
        return TaskBeat(
            _DirectChannel(self), job, phase, task_index, attempt,
            interval=self.config.heartbeat_interval,
        )

    # -- the run's structure, from the span stream ------------------------
    def _job(self, job: str) -> _JobState:
        state = self._jobs.get(job)
        if state is None:
            state = _JobState(name=job, order=len(self._jobs))
            self._jobs[job] = state
        return state

    def opened(self, span: Span) -> None:
        if span.kind in ("job", "phase"):
            with self._lock:
                job = self._job(str(span.attributes.get("job", span.name)))
                if span.kind == "phase":
                    job.phases[span.name] = _PhaseState(
                        total=max(int(span.attributes.get("tasks", 0)), 0)
                    )

    def emit(self, span: Span) -> None:
        if span.kind in ("job", "phase"):
            with self._lock:
                job = self._job(str(span.attributes.get("job", span.name)))
                if span.kind == "job":
                    finished = [job, *job.phases.values()]
                else:
                    finished = [job.phases.get(span.name)]
                for state in finished:
                    if state is not None:
                        state.finished = True
                self._publish_locked(time.monotonic())
        elif span.kind == "plan" and "prediction" in span.attributes:
            # The analytic prediction the ETA model scales: its cycles'
            # ``records_read`` / ``shuffled_records`` (as
            # :meth:`CyclePrediction.as_dict` emits them) become the
            # per-cycle work weights of the progress model.
            prediction = span.attributes["prediction"]
            with self._lock:
                self._plan = {
                    "algorithm": span.attributes.get("algorithm"),
                    "cycles": list(prediction["cycles"]),
                    "modelled_seconds": float(
                        prediction["quantities"]["modelled_seconds"]
                    ),
                }

    # -- heartbeat ingestion ---------------------------------------------
    def ingest(self, beat: Heartbeat) -> None:
        """Fold one heartbeat into the live state (any thread)."""
        if not isinstance(beat, Heartbeat):
            return
        now = time.monotonic()
        with self._lock:
            self._heartbeats += 1
            key = (beat.job, beat.phase, beat.task_index)
            task = self._tasks.get(key)
            if task is None:
                task = self._tasks[key] = _TaskState()
            task.last_seen = now
            task.attempt = max(task.attempt, beat.attempt)
            if beat.records is not None and beat.records > task.records:
                task.records = beat.records
            if beat.kind == BEAT_START:
                task.started = True
            elif beat.kind == BEAT_FINISH and not task.finished:
                task.finished = True
                job = self._jobs.get(beat.job)
                if job is not None:
                    phase = job.phases.get(beat.phase)
                    if phase is not None and phase.done < phase.total:
                        phase.done += 1
            self.metrics.counter(
                "repro_live_heartbeats_total",
                "Per-task heartbeat events received by the telemetry hub.",
                labels=("job", "phase"),
                group=GROUP_LIVE,
            ).inc(job=beat.job, phase=beat.phase)

    def publish(self) -> None:
        """Refresh the ``repro_live_*`` gauges right now.

        The watchdog publishes every poll tick; an HTTP scrape calls
        this first so ``/metrics`` always reflects the current state
        even between ticks (or before the first one).
        """
        with self._lock:
            self._publish_locked(time.monotonic())

    # -- watchdog ----------------------------------------------------------
    def _watch(self) -> None:
        while not self._closed.wait(self.config.poll_interval):
            now = time.monotonic()
            with self._lock:
                self._flag_stalled_locked(now)
                self._publish_locked(now)

    def _flag_stalled_locked(self, now: float) -> None:
        threshold = self.config.stall_seconds
        for key, task in self._tasks.items():
            if task.finished or not task.started or key in self._stalled:
                continue
            if now - task.last_seen > threshold:
                self._stalled.add(key)
                self.metrics.counter(
                    "repro_live_stalled_total",
                    "Tasks the watchdog flagged as observed stragglers "
                    "(no heartbeat for stall_seconds while running).",
                    labels=("job", "phase"),
                    group=GROUP_LIVE,
                ).inc(job=key[0], phase=key[1])

    def stalled_indices(self, job: str, phase: str) -> FrozenSet[int]:
        """Task indices the watchdog flagged for one job phase — what
        the runner's speculation pass consumes."""
        with self._lock:
            return frozenset(
                index for (j, p, index) in self._stalled
                if j == job and p == phase
            )

    # -- progress / ETA ---------------------------------------------------
    def _cycle_weights(self, jobs: List[_JobState]) -> List[Dict[str, float]]:
        """Per-job phase weights, scaled from the analytic prediction.

        Cycle ``i`` of the prediction weights observed job ``i`` (extra
        observed jobs reuse the last cycle); without a prediction every
        job weighs 1.0 split evenly across phases.
        """
        cycles = (self._plan or {}).get("cycles") or []
        weights = []
        for job in jobs:
            cycle = cycles[min(job.order, len(cycles) - 1)] if cycles else {}
            reads = float(cycle.get("records_read", 0.0) or 0.0)
            shuffled = float(cycle.get("shuffled_records", 0.0) or 0.0)
            if reads <= 0 and shuffled <= 0:
                weights.append({"map": 1.0, "shuffle": 1.0, "reduce": 1.0})
            else:
                # Reads drive the map phase; shuffled records drive both
                # the shuffle and the reduce phase (Section 6's
                # communication-cost shape).
                weights.append({
                    "map": max(reads, 1.0),
                    "shuffle": max(shuffled, 1.0),
                    "reduce": max(shuffled, 1.0),
                })
        return weights

    def _progress_locked(self, now: float) -> Tuple[float, Optional[float]]:
        """(overall fraction, eta seconds) of the run right now."""
        jobs = sorted(self._jobs.values(), key=lambda j: j.order)
        predicted_cycles = len((self._plan or {}).get("cycles") or [])
        if not jobs and not predicted_cycles:
            return 0.0, None
        weights = self._cycle_weights(jobs)
        done_weight = 0.0
        total_weight = 0.0
        for job, phase_weights in zip(jobs, weights):
            job_weight = sum(phase_weights.values())
            total_weight += job_weight
            if job.finished:
                done_weight += job_weight
                continue
            for phase, weight in phase_weights.items():
                state = job.phases.get(phase)
                if state is None:
                    continue
                if state.finished:
                    done_weight += weight
                elif state.total:
                    done_weight += weight * (state.done / state.total)
        # Predicted cycles not started yet still belong in the total.
        if predicted_cycles > len(jobs):
            cycles = (self._plan or {}).get("cycles") or []
            for order in range(len(jobs), predicted_cycles):
                cycle = cycles[order]
                reads = float(cycle.get("records_read", 0.0) or 0.0)
                shuffled = float(cycle.get("shuffled_records", 0.0) or 0.0)
                total_weight += (
                    max(reads, 1.0) + 2 * max(shuffled, 1.0)
                    if reads > 0 or shuffled > 0
                    else 3.0
                )
        if total_weight <= 0:
            return 0.0, None
        fraction = min(1.0, done_weight / total_weight)
        elapsed = now - self._started_at
        if fraction <= 1e-9:
            return 0.0, None
        eta = elapsed * (1.0 - fraction) / fraction
        if self._first_eta is None and 0.0 < fraction < 1.0:
            self._first_eta = elapsed + eta
        self._last_eta = eta
        return fraction, eta

    def _publish_locked(self, now: float) -> None:
        running = {}
        finished = {}
        records = {}
        for (job, phase, _), task in self._tasks.items():
            key = (job, phase)
            if task.finished:
                finished[key] = finished.get(key, 0) + 1
            elif task.started:
                running[key] = running.get(key, 0) + 1
            records[key] = records.get(key, 0) + task.records
        tasks_gauge = self.metrics.gauge(
            "repro_live_tasks",
            "Tasks currently running / finished per job phase, from "
            "heartbeats.",
            labels=("job", "phase", "state"),
            group=GROUP_LIVE,
        )
        records_gauge = self.metrics.gauge(
            "repro_live_records_processed",
            "Cumulative records processed per job phase, from progress "
            "heartbeats.",
            labels=("job", "phase"),
            group=GROUP_LIVE,
        )
        keys = set(running) | set(finished) | set(records)
        for job, phase in keys:
            tasks_gauge.set(
                running.get((job, phase), 0), job=job, phase=phase,
                state="running",
            )
            tasks_gauge.set(
                finished.get((job, phase), 0), job=job, phase=phase,
                state="finished",
            )
            records_gauge.set(
                records.get((job, phase), 0), job=job, phase=phase
            )
        progress_gauge = self.metrics.gauge(
            "repro_live_phase_progress_ratio",
            "Completed fraction of each job phase's task wave.",
            labels=("job", "phase"),
            group=GROUP_LIVE,
        )
        for job in self._jobs.values():
            for phase, state in job.phases.items():
                ratio = (
                    1.0 if state.finished
                    else (state.done / state.total if state.total else 0.0)
                )
                progress_gauge.set(ratio, job=job.name, phase=phase)
        fraction, eta = self._progress_locked(now)
        self.metrics.gauge(
            "repro_live_run_progress_ratio",
            "Overall run progress: observed completion fractions scaled "
            "by the analytic per-cycle work weights.",
            group=GROUP_LIVE,
        ).set(fraction)
        if eta is not None:
            self.metrics.gauge(
                "repro_live_eta_seconds",
                "Estimated wall seconds until the run completes.",
                group=GROUP_LIVE,
            ).set(eta)

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able live progress snapshot (what ``/progress`` serves)."""
        now = time.monotonic()
        with self._lock:
            fraction, eta = self._progress_locked(now)
            jobs = []
            for job in sorted(self._jobs.values(), key=lambda j: j.order):
                phases = []
                for phase, state in job.phases.items():
                    phase_tasks = [
                        (key[2], task)
                        for key, task in self._tasks.items()
                        if key[0] == job.name and key[1] == phase
                    ]
                    phases.append({
                        "phase": phase,
                        "total_tasks": state.total,
                        "done_tasks": state.done,
                        "finished": state.finished,
                        "running_tasks": sum(
                            1 for _, t in phase_tasks
                            if t.started and not t.finished
                        ),
                        "records_processed": sum(
                            t.records for _, t in phase_tasks
                        ),
                    })
                jobs.append({
                    "job": job.name,
                    "finished": job.finished,
                    "phases": phases,
                })
            plan = self._plan or {}
            return {
                "algorithm": plan.get("algorithm"),
                "elapsed_seconds": now - self._started_at,
                "progress": fraction,
                "eta_seconds": eta,
                "modelled_seconds": plan.get("modelled_seconds"),
                "predicted_cycles": len(plan.get("cycles") or []),
                "heartbeats": self._heartbeats,
                "closed": self._closed.is_set(),
                "jobs": jobs,
                "stalled": [
                    {"job": j, "phase": p, "task_index": i}
                    for (j, p, i) in sorted(self._stalled)
                ],
            }


# ----------------------------------------------------------------------
# The live status endpoint (stdlib http.server on a daemon thread).
# ----------------------------------------------------------------------

class _StatusHandler(BaseHTTPRequestHandler):
    # Keep the default access log off the run's stdout.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        server: "StatusServer" = self.server.status  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                self._send(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    server.metrics_text(),
                )
            elif path == "/progress":
                self._send(
                    200, "application/json; charset=utf-8",
                    json.dumps(server.progress(), sort_keys=True),
                )
            elif path == "/":
                self._send(200, "text/html; charset=utf-8", server.page())
            else:
                self._send(
                    404, "text/plain; charset=utf-8",
                    "unknown path; try /metrics, /progress or /\n",
                )
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, "text/plain; charset=utf-8", f"error: {exc}\n")


class StatusServer:
    """``repro run --serve-status PORT``: the live HTTP endpoint.

    Serves ``/metrics`` (Prometheus text exposition of the live
    registry), ``/progress`` (the hub's JSON snapshot) and ``/`` (the
    self-contained HTML dashboard rendered from the recorder's
    *in-flight* spans).  Runs on a daemon thread; pass port 0 to bind an
    ephemeral port (tests) and read it back from :attr:`port`.

    Constructing it binds the port (``OSError`` when it is taken) and
    starts nothing, so a run can claim its port before anything else
    exists and set :attr:`recorder` before :meth:`start`.
    """

    def __init__(
        self,
        recorder: Any = None,
        port: int = 0,
        host: str = "127.0.0.1",
        title: str = "repro run (live)",
    ) -> None:
        self.recorder = recorder
        self.title = title
        self._httpd = ThreadingHTTPServer((host, port), _StatusHandler)
        self._httpd.daemon_threads = True
        self._httpd.status = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def hub(self) -> Optional[TelemetryHub]:
        return getattr(self.recorder, "live", None)

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "StatusServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-live-status",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            # shutdown() waits for serve_forever() to end — for ever if
            # it never began.
            self._httpd.shutdown()
            self._thread.join(timeout=2.0)
            self._thread = None
        self._httpd.server_close()

    # -- route bodies -----------------------------------------------------
    def metrics_text(self) -> str:
        if self.hub is not None:
            self.hub.publish()
        return self.recorder.metrics.to_prometheus()

    def progress(self) -> Dict[str, Any]:
        if self.hub is None:
            return {"error": "live telemetry not attached"}
        return self.hub.snapshot()

    def page(self) -> str:
        from repro.obs.dashboard import render_dashboard

        spans = self.recorder.snapshot_spans()
        return render_dashboard(
            spans,
            self.recorder.metrics,
            title=self.title,
            now=self.recorder._now(),
        )


# ----------------------------------------------------------------------
# Terminal rendering: ``repro run --progress`` and ``repro top``.
# ----------------------------------------------------------------------

def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


def _fmt_eta(eta: Optional[float]) -> str:
    if eta is None:
        return "--"
    return f"{eta:.1f}s"


def render_progress_line(snapshot: Dict[str, Any]) -> str:
    """One-line progress rendering (the ``--progress`` ticker)."""
    fraction = float(snapshot.get("progress") or 0.0)
    parts = [
        f"progress {fraction * 100:3.0f}% [{_bar(fraction)}]",
        f"elapsed {float(snapshot.get('elapsed_seconds') or 0.0):.1f}s",
        f"eta {_fmt_eta(snapshot.get('eta_seconds'))}",
    ]
    active = None
    for job in snapshot.get("jobs", []):
        if job.get("finished"):
            continue
        for phase in job.get("phases", []):
            if not phase.get("finished"):
                active = (
                    f"{job['job']} {phase['phase']} "
                    f"{phase['done_tasks']}/{phase['total_tasks']}"
                )
                break
        if active:
            break
    if active:
        parts.append(active)
    stalled = snapshot.get("stalled") or []
    if stalled:
        parts.append(f"stalled {len(stalled)}")
    return " · ".join(parts)


def render_top(snapshot: Dict[str, Any]) -> str:
    """The multi-line ``repro top`` terminal view of one snapshot."""
    lines = [
        "repro top — "
        f"algorithm {snapshot.get('algorithm') or '?'} · "
        f"elapsed {float(snapshot.get('elapsed_seconds') or 0.0):.1f}s · "
        f"progress {float(snapshot.get('progress') or 0.0) * 100:.0f}% · "
        f"eta {_fmt_eta(snapshot.get('eta_seconds'))}"
    ]
    for job in snapshot.get("jobs", []):
        for phase in job.get("phases", []):
            total = phase.get("total_tasks") or 0
            done = phase.get("done_tasks") or 0
            fraction = (
                1.0 if phase.get("finished")
                else (done / total if total else 0.0)
            )
            lines.append(
                f"  {job['job']:<24s} {phase['phase']:<8s}"
                f"[{_bar(fraction)}] {done}/{total}"
                + (
                    f" · {phase['records_processed']} records"
                    if phase.get("records_processed")
                    else ""
                )
            )
    for item in snapshot.get("stalled", []):
        lines.append(
            f"  stalled: {item['job']} {item['phase']}"
            f"[{item['task_index']}]"
        )
    if snapshot.get("closed"):
        lines.append("  run complete")
    return "\n".join(lines)


def fetch_progress(url: str, timeout: float = 2.0) -> Dict[str, Any]:
    """GET the ``/progress`` JSON snapshot of a serving run."""
    from urllib.request import urlopen

    target = url if "://" in url else f"http://{url}"
    if not target.rstrip("/").endswith("/progress"):
        target = target.rstrip("/") + "/progress"
    with urlopen(target, timeout=timeout) as response:  # noqa: S310
        return json.loads(response.read().decode("utf-8"))


class ProgressPrinter:
    """The ``repro run --progress`` ticker: a daemon thread re-rendering
    the hub snapshot to a stream every ``interval`` seconds, with a
    final ETA-vs-actual line on close."""

    def __init__(
        self, hub: TelemetryHub, stream: Any = None, interval: float = 0.5
    ) -> None:
        import sys

        self.hub = hub
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ProgressPrinter":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-live-progress", daemon=True
            )
            self._thread.start()
        return self

    def _write(self, text: str, end: str) -> None:
        try:
            self.stream.write(text + end)
            self.stream.flush()
        except (OSError, ValueError):  # stream gone; stop quietly
            self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._write("\r" + render_progress_line(self.hub.snapshot()), "")

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        snapshot = self.hub.snapshot()
        actual = float(snapshot.get("elapsed_seconds") or 0.0)
        first_eta = self.hub._first_eta
        line = f"\rlive:       actual {actual:.2f}s"
        if first_eta is not None:
            err = (first_eta - actual) / actual * 100 if actual else 0.0
            line += f" · first ETA {first_eta:.2f}s ({err:+.0f}%)"
        self._write(line, "\n")
