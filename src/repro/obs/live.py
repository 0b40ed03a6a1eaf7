"""Live run telemetry: a fold over the span stream, and two views of it.

Every other observability surface (traces, the dashboard, EXPLAIN
reconciliation, the profiler) is post-hoc — nothing is visible until the
run ends.  This module supplies the *live* path the paper's Hadoop
setting assumes.  The :class:`TelemetryHub` is a sink of the recorder's
span stream and nothing else: ``job`` and ``phase`` spans opening and
closing give it the run's structure (a phase span carries its task count
as ``tasks=``), an opening ``task`` span is a task running, a closing
one a task done (or, closed as a failed or speculative ``attempt``, just
no longer running), and the ``plan`` span brings the analytic
prediction.  The hub owns no thread and nothing reports to it from
inside a task: it computes on every span event and whenever it is
asked.

On top of the hub:

* **progress + ETA** — the analytic ``predict()`` tier supplies
  per-cycle work weights (records read, shuffled records); the hub
  scales them by the observed per-phase completion fractions and
  extrapolates the remaining wall time.  Rendered by ``repro run
  --progress`` (:class:`ProgressPrinter`).
* **live HTTP endpoint** — :class:`StatusServer` (stdlib
  ``http.server`` on a daemon thread; ``repro run --serve-status PORT``)
  serves ``/metrics`` (Prometheus text), ``/progress`` (JSON snapshot)
  and ``/`` (the HTML dashboard rendered from in-flight spans).

Those two views are the only threads here, each started by the flag
that asks for it.  All live families live in the ``live`` metric group,
which — like ``wall`` and ``profile`` — is excluded from parity
fingerprints: it is read off the wall clock.  The passivity contract is
pinned by ``tests/integration/test_live_parity.py``: with telemetry off
the run is bit-identical to an unobserved one; with it on, output tuples
and run-group metrics stay bit-identical across all three executors.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import GROUP_LIVE, MetricsRegistry
from repro.obs.sinks import TraceSink
from repro.obs.span import Span

__all__ = [
    "LIVE_ENV",
    "resolve_live",
    "TelemetryHub",
    "StatusServer",
    "ProgressPrinter",
    "render_progress_line",
]

#: Environment switch (how CI runs a whole suite with live telemetry).
LIVE_ENV = "REPRO_LIVE"

_FALSEY = ("", "0", "false", "no", "off")

#: The kinds a task's span closes as: the winner, a failed or
#: speculative attempt.  Every one of them opened as a running task.
_TASK_KINDS = ("task", "attempt")


def resolve_live(explicit: Optional[bool] = None) -> bool:
    """Whether to attach live telemetry: ``explicit`` when not ``None``,
    otherwise what ``$REPRO_LIVE`` says — mirroring
    :func:`repro.obs.profile.resolve_profile`."""
    if explicit is not None:
        return bool(explicit)
    return os.environ.get(LIVE_ENV, "").strip().lower() not in _FALSEY


# ----------------------------------------------------------------------
# Driver-side state.
# ----------------------------------------------------------------------

@dataclass
class _PhaseState:
    total: int = 0
    done: int = 0
    running: int = 0
    finished: bool = False


@dataclass
class _JobState:
    name: str
    order: int
    phases: "Dict[str, _PhaseState]" = field(default_factory=dict)
    finished: bool = False


def _cycle_weights(cycle: Dict[str, Any]) -> Dict[str, float]:
    """The phase weights of one job from its predicted cycle: reads
    drive the map phase; shuffled records drive both the shuffle and the
    reduce phase (Section 6's communication-cost shape).  Without a
    prediction every phase weighs 1."""
    reads = float(cycle.get("records_read", 0.0) or 0.0)
    shuffled = float(cycle.get("shuffled_records", 0.0) or 0.0)
    if reads <= 0 and shuffled <= 0:
        return {"map": 1.0, "shuffle": 1.0, "reduce": 1.0}
    return {
        "map": max(reads, 1.0),
        "shuffle": max(shuffled, 1.0),
        "reduce": max(shuffled, 1.0),
    }


class TelemetryHub(TraceSink):
    """The live state of a run, folded from its span stream.

    Strictly additive: the hub only *reads* the spans it receives as a
    sink and *writes* the ``live`` metric group — never counters, spans
    or outputs.  The span hooks arrive serialised by the recorder; the
    hub lock is against the views (:meth:`snapshot`, :meth:`publish`),
    which other threads call.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self.closed = False
        self._started_at = time.monotonic()
        self._jobs: "Dict[str, _JobState]" = {}
        self._plan: Dict[str, Any] = {}
        self._first_eta: Optional[float] = None

    # -- the fold -------------------------------------------------------------
    def _job(self, span: Span) -> _JobState:
        name = str(span.attributes.get("job", span.name))
        state = self._jobs.get(name)
        if state is None:
            state = self._jobs[name] = _JobState(name, order=len(self._jobs))
        return state

    def _task_phase(self, span: Span) -> Tuple[str, str, _PhaseState]:
        """(job name, phase name, phase state) of a task's span."""
        job = self._job(span)
        phase = str(span.attributes.get("phase", span.name))
        return job.name, phase, job.phases.setdefault(phase, _PhaseState())

    def opened(self, span: Span) -> None:
        with self._lock:
            if span.kind in _TASK_KINDS:
                job, phase, state = self._task_phase(span)
                state.running += 1
                self._publish_tasks(job, phase, state)
            elif span.kind == "job":
                self._job(span)
            elif span.kind == "phase":
                self._job(span).phases[span.name] = _PhaseState(
                    total=max(int(span.attributes.get("tasks", 0)), 0)
                )
            else:
                return
            self._publish_run()

    def emit(self, span: Span) -> None:
        with self._lock:
            if span.kind in _TASK_KINDS:
                # Only the winner closes as a task; failed and
                # speculative attempts just stop running.
                job, phase, state = self._task_phase(span)
                state.running -= 1
                if span.kind == "task":
                    state.done += 1
                self._publish_tasks(job, phase, state)
            elif span.kind == "job":
                job = self._job(span)
                for state in (job, *job.phases.values()):
                    state.finished = True
            elif span.kind == "phase":
                state = self._job(span).phases.get(span.name)
                if state is not None:
                    state.finished = True
            elif span.kind == "plan" and "prediction" in span.attributes:
                # The analytic prediction the ETA model scales: its
                # cycles' ``records_read`` / ``shuffled_records`` (as
                # :meth:`CyclePrediction.as_dict` emits them) become the
                # per-cycle work weights of the progress model.
                prediction = span.attributes["prediction"]
                self._plan = {
                    "algorithm": span.attributes.get("algorithm"),
                    "cycles": list(prediction["cycles"]),
                    "modelled_seconds": float(
                        prediction["quantities"]["modelled_seconds"]
                    ),
                }
            else:
                return
            self._publish_run()

    def close(self) -> None:
        """Publish the final ETA-vs-actual gauges."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self._publish_run()
            final = self.metrics.gauge(
                "repro_live_run_seconds",
                "Final ETA-vs-actual accounting: the run's actual wall "
                "seconds, the analytic prediction, and the first live "
                "ETA computed.",
                labels=("kind",),
                group=GROUP_LIVE,
            )
            final.set(time.monotonic() - self._started_at, kind="actual")
            if self._plan:
                final.set(self._plan["modelled_seconds"], kind="predicted")
            if self._first_eta is not None:
                final.set(self._first_eta, kind="eta_initial")

    # -- progress / ETA ---------------------------------------------------
    def _progress(self, now: float) -> Tuple[float, Optional[float]]:
        """(overall fraction, eta seconds) of the run right now.

        Cycle ``i`` of the prediction weights observed job ``i`` (extra
        observed jobs reuse the last cycle), and predicted cycles not
        started yet still belong in the total.
        """
        jobs = sorted(self._jobs.values(), key=lambda job: job.order)
        cycles = self._plan.get("cycles") or []
        done_weight = 0.0
        total_weight = 0.0
        for order in range(max(len(jobs), len(cycles))):
            cycle = cycles[min(order, len(cycles) - 1)] if cycles else {}
            weights = _cycle_weights(cycle)
            total_weight += sum(weights.values())
            if order >= len(jobs):
                continue
            job = jobs[order]
            for phase, weight in weights.items():
                state = job.phases.get(phase)
                if job.finished or (state is not None and state.finished):
                    done_weight += weight
                elif state is not None and state.total:
                    done_weight += weight * (state.done / state.total)
        if total_weight <= 0:
            return 0.0, None
        fraction = min(1.0, done_weight / total_weight)
        if fraction <= 1e-9:
            return 0.0, None
        elapsed = now - self._started_at
        eta = elapsed * (1.0 - fraction) / fraction
        if self._first_eta is None and fraction < 1.0:
            self._first_eta = elapsed + eta
        return fraction, eta

    def _publish_tasks(self, job: str, phase: str, state: _PhaseState) -> None:
        gauge = self.metrics.gauge(
            "repro_live_tasks",
            "Tasks currently running / finished per job phase, from task "
            "spans opening and closing.",
            labels=("job", "phase", "state"),
            group=GROUP_LIVE,
        )
        gauge.set(state.running, job=job, phase=phase, state="running")
        gauge.set(state.done, job=job, phase=phase, state="finished")

    def _publish_run(self) -> None:
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
        fraction, eta = self._progress(time.monotonic())
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

    def publish(self) -> None:
        """Refresh the ``repro_live_*`` gauges right now.

        Every span event publishes; an HTTP scrape calls this first so
        the ETA on ``/metrics`` is read off the current clock, not the
        last event's.
        """
        with self._lock:
            self._publish_run()

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able live progress snapshot (what ``/progress`` serves)."""
        now = time.monotonic()
        with self._lock:
            fraction, eta = self._progress(now)
            return {
                "algorithm": self._plan.get("algorithm"),
                "elapsed_seconds": now - self._started_at,
                "progress": fraction,
                "eta_seconds": eta,
                "eta_initial_seconds": self._first_eta,
                "modelled_seconds": self._plan.get("modelled_seconds"),
                "closed": self.closed,
                "jobs": [
                    {
                        "job": job.name,
                        "finished": job.finished,
                        "phases": [
                            {
                                "phase": phase,
                                "total_tasks": state.total,
                                "done_tasks": state.done,
                                "running_tasks": state.running,
                                "finished": state.finished,
                            }
                            for phase, state in job.phases.items()
                        ],
                    }
                    for job in sorted(
                        self._jobs.values(), key=lambda job: job.order
                    )
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
# Terminal rendering: ``repro run --progress``.
# ----------------------------------------------------------------------

def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


def render_progress_line(snapshot: Dict[str, Any]) -> str:
    """One-line progress rendering (the ``--progress`` ticker)."""
    fraction = float(snapshot.get("progress") or 0.0)
    eta = snapshot.get("eta_seconds")
    parts = [
        f"progress {fraction * 100:3.0f}% [{_bar(fraction)}]",
        f"elapsed {float(snapshot.get('elapsed_seconds') or 0.0):.1f}s",
        "eta " + ("--" if eta is None else f"{eta:.1f}s"),
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
    return " · ".join(parts)


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
        first_eta = snapshot.get("eta_initial_seconds")
        line = f"\rlive:       actual {actual:.2f}s"
        if first_eta is not None:
            err = (first_eta - actual) / actual * 100 if actual else 0.0
            line += f" · first ETA {first_eta:.2f}s ({err:+.0f}%)"
        self._write(line, "\n")
