"""The data-plane profiler: CPU, memory and serialization accounting.

Spans time *phases*; nothing in them attributes cost to the
*boundaries* of the data plane (pickle shipping, memory growth).  This
module closes that gap.  When a run is profiled (``repro run --profile``
/ ``$REPRO_PROFILE``), a :class:`Profiler` is the first sink of the
:class:`~repro.obs.recorder.TraceRecorder` and collects:

* **CPU** — a low-overhead sampling profiler (:class:`StackSampler`,
  a daemon thread walking ``sys._current_frames()``) aggregates stacks
  into collapsed-stack text and a self-contained SVG flame graph
  (:func:`render_flame_svg` — server-side, no JavaScript, like the
  dashboard); ``time.thread_time()`` charges per-task and per-phase
  CPU seconds.
* **Memory** — per-phase watermarks.  The default level records the
  cheap, always-safe signals (peak RSS via ``resource.getrusage`` and
  live allocation blocks via ``sys.getallocatedblocks``); the ``full``
  level adds ``tracemalloc`` current/peak traced bytes, which are exact
  but cost well over the 10% overhead budget (measured ~5x on join
  workloads), so they are opt-in.
* **Serialization** — pickle bytes and encode/decode wall seconds at
  the processes-executor dispatch, both parent and worker side
  (:meth:`Profiler.ship`, the one place an observer wraps engine work).

The profiler writes no metric: it annotates the spans it watches
(``profile_*`` attributes on phase spans; CPU and pickle facts on the
attempt's span), so the facts reach the JSONL trace, and the fold in
:mod:`repro.obs.metrics` turns them into the ``profile`` metric group —
machine- and executor-dependent by nature, so excluded from the parity
fingerprint exactly like ``wall``.  Profiling is strictly passive: with
it off nothing in this module runs, and with it on the run's
deterministic outputs and ``run``-group metrics are bit-identical
(pinned by the profiler passivity tests).
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
import zlib
from collections import Counter as CollectionsCounter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.gc_pause import collector_paused
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink
from repro.obs.span import Span

__all__ = [
    "PROFILE_ENV",
    "LEVEL_CPU",
    "LEVEL_FULL",
    "resolve_profile",
    "StackSampler",
    "Profiler",
    "run_profiled_task",
    "render_flame_svg",
    "data_plane_rows",
    "data_plane_summary",
]

#: Environment variable enabling profiling (``repro run --profile`` on
#: the CLI).  Empty / ``0`` / ``false`` / ``no`` / ``off`` disable;
#: ``full`` selects :data:`LEVEL_FULL`; any other value selects
#: :data:`LEVEL_CPU`.
PROFILE_ENV = "REPRO_PROFILE"

#: Default level: sampler + thread-time CPU, serialization accounting
#: and cheap memory watermarks.  Overhead is gated < 10%
#: (``benchmarks/bench_profile.py``).
LEVEL_CPU = "cpu"

#: Adds tracemalloc current/peak traced-byte watermarks per phase.
#: Exact, but far beyond the 10% overhead budget — opt-in only.
LEVEL_FULL = "full"

_FALSEY = ("", "0", "false", "no", "off")

#: Frames kept per sampled stack (deeper stacks are truncated at the
#: root end, keeping the leaves — the hot code — intact).
_MAX_STACK_DEPTH = 48


def resolve_profile(explicit: Any = None) -> Optional[str]:
    """Resolve the profiling level: a level string, or ``None`` for off.

    ``explicit`` wins when not ``None``: ``False`` forces off, ``True``
    means :data:`LEVEL_CPU`, a string names the level.  Otherwise
    ``$REPRO_PROFILE`` decides.
    """
    if explicit is not None:
        if explicit is False:
            return None
        if explicit is True:
            return LEVEL_CPU
        value = str(explicit).strip().lower()
    else:
        value = os.environ.get(PROFILE_ENV, "").strip().lower()
    if value in _FALSEY:
        return None
    return LEVEL_FULL if value == LEVEL_FULL else LEVEL_CPU


# ----------------------------------------------------------------------
# Stack sampling.
# ----------------------------------------------------------------------

def _frame_stack(frame: Any) -> List[str]:
    """``module.function`` frames of one thread, root first."""
    names: List[str] = []
    while frame is not None and len(names) < _MAX_STACK_DEPTH:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        names.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    names.reverse()
    return names


class StackSampler:
    """A sampling CPU profiler over registered threads.

    A daemon thread wakes every ``interval`` seconds, grabs
    ``sys._current_frames()`` and, for each *registered* thread, folds
    the current stack into a counter keyed by the collapsed-stack string
    ``"context;module.func;...;leaf"``.  Only registered threads are
    sampled, so test harnesses and unrelated pool machinery never
    pollute the flame graph.  Each thread carries a *stack* of context
    labels (``push``/``pop``), letting a driver thread be relabelled
    ``job;phase`` for the duration of a phase and restored afterwards.
    """

    def __init__(self, interval: float = 0.004) -> None:
        self.interval = interval
        self._lock = threading.Lock()
        self._labels: Dict[int, List[str]] = {}
        self._folded: CollectionsCounter = CollectionsCounter()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: total samples taken (all registered threads).
        self.samples = 0

    # -- thread registry ------------------------------------------------
    def push(self, thread_id: int, label: str) -> None:
        """Register (or re-label) a thread for sampling."""
        with self._lock:
            self._labels.setdefault(thread_id, []).append(label)

    def pop(self, thread_id: int) -> None:
        """Drop a thread's innermost label; unregisters on the last."""
        with self._lock:
            stack = self._labels.get(thread_id)
            if stack:
                stack.pop()
            if not stack:
                self._labels.pop(thread_id, None)

    # -- sampling -------------------------------------------------------
    def sample_once(self) -> int:
        """Take one sample of every registered thread (also called by
        the background loop); returns the number of stacks folded."""
        # _current_frames() allocates while holding the interpreter's
        # thread-list lock; a collection started there runs Python code
        # (gc callbacks, finalisers), which can hand the GIL to a thread
        # that then blocks on that lock (another sampler, a thread
        # starting or exiting) for good.
        with collector_paused():
            frames = sys._current_frames()
        folded = 0
        with self._lock:
            for thread_id, labels in self._labels.items():
                frame = frames.get(thread_id)
                if frame is None:
                    continue
                stack = _frame_stack(frame)
                if not stack:
                    continue
                label = labels[-1] if labels else ""
                key = ";".join([label] + stack if label else stack)
                self._folded[key] += 1
                folded += 1
            self.samples += folded
        return folded

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - never break the run
                pass

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        self._thread = None
        if thread is not None:
            thread.join(timeout=1.0)

    # -- results --------------------------------------------------------
    def folded(self) -> Dict[str, int]:
        """A copy of the collapsed-stack sample counts."""
        with self._lock:
            return dict(self._folded)

    def drain(self) -> Dict[str, int]:
        """Return the collapsed-stack counts and reset them."""
        with self._lock:
            out = dict(self._folded)
            self._folded.clear()
            return out


# ----------------------------------------------------------------------
# The profiler proper.
# ----------------------------------------------------------------------

# tracemalloc is process-global; a refcount keeps concurrently-active
# profilers (parallel tests) from stopping each other's collection.
_global_lock = threading.Lock()
_tracemalloc_users = 0
_tracemalloc_started_here = False


def _tracemalloc_acquire() -> None:
    global _tracemalloc_users, _tracemalloc_started_here
    import tracemalloc

    with _global_lock:
        if _tracemalloc_users == 0 and not tracemalloc.is_tracing():
            tracemalloc.start(1)
            _tracemalloc_started_here = True
        _tracemalloc_users += 1


def _tracemalloc_release() -> None:
    global _tracemalloc_users, _tracemalloc_started_here
    import tracemalloc

    with _global_lock:
        if _tracemalloc_users > 0:
            _tracemalloc_users -= 1
        if _tracemalloc_users == 0 and _tracemalloc_started_here:
            tracemalloc.stop()
            _tracemalloc_started_here = False


def _rss_peak_bytes() -> int:
    """Process peak RSS in bytes (0 where ``resource`` is unavailable)."""
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


class Profiler(TraceSink):
    """Collects data-plane facts for one profiled run.

    Wire-up: :class:`~repro.obs.recorder.TraceRecorder` constructs one
    (``TraceRecorder(profile=...)``) and subscribes it ahead of every
    other sink, so each span passes through :meth:`opened` and
    :meth:`emit` — on the thread that opens and closes it — before the
    metrics fold or a trace file sees it.  The runner sends every pooled
    attempt through :meth:`ship`.
    """

    def __init__(self, level: str = LEVEL_CPU) -> None:
        self.level = level
        self.sampler = StackSampler()
        # Span hooks are serialised by the recorder; ship() runs on the
        # driver threads and shares the worker stacks with the readers.
        self._lock = threading.Lock()
        #: span_id -> thread_time at open, for open phase and task spans.
        self._cpu_started: Dict[int, float] = {}
        #: collapsed stacks absorbed from worker processes.
        self._worker_folded: CollectionsCounter = CollectionsCounter()
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sampler.push(threading.get_ident(), "driver")
        self.sampler.start()
        if self.level == LEVEL_FULL:
            _tracemalloc_acquire()

    def close(self) -> None:
        if not self._started:
            return
        self._started = False
        self.sampler.stop()
        if self.level == LEVEL_FULL:
            _tracemalloc_release()

    # -- span hooks -----------------------------------------------------
    def opened(self, span: Span) -> None:
        if span.kind == "phase":
            label = f"{span.attributes.get('job', span.name)};{span.name}"
            if self.level == LEVEL_FULL:
                import tracemalloc

                tracemalloc.reset_peak()
        elif span.kind == "task":
            label = (
                f"{span.attributes.get('job', '')};"
                f"{span.attributes.get('phase', span.name)};task"
            )
        else:
            return
        self._cpu_started[span.span_id] = time.thread_time()
        self.sampler.push(threading.get_ident(), label)

    def emit(self, span: Span) -> None:
        # Only spans :meth:`opened` took a baseline for: phases, and
        # tasks that ran on this thread (the runner may have closed one
        # as a failed or speculative ``attempt``; a pooled task is
        # materialised from the worker's record and never opened here).
        cpu0 = self._cpu_started.pop(span.span_id, None)
        if cpu0 is None:
            return
        self.sampler.pop(threading.get_ident())
        cpu = max(0.0, time.thread_time() - cpu0)
        if span.kind != "phase":
            span.annotate(profile_cpu_seconds=cpu)
            return
        span.annotate(
            profile_cpu_driver_seconds=cpu,
            profile_mem_rss_peak_bytes=_rss_peak_bytes(),
            profile_mem_alloc_blocks=sys.getallocatedblocks(),
        )
        if self.level == LEVEL_FULL:
            import tracemalloc

            if tracemalloc.is_tracing():
                current, peak = tracemalloc.get_traced_memory()
                span.annotate(
                    profile_mem_current_bytes=current,
                    profile_mem_peak_bytes=peak,
                )

    # -- the serialization boundary ---------------------------------------
    def ship(
        self, fn: Any, payload: Any, submit: Any, parent: Any
    ) -> Tuple[Any, Dict[str, Any]]:
        """Run ``fn(payload)`` in a worker through ``submit(fn, payload)``
        (parent side of :func:`run_profiled_task`) and return the result
        with what the round trip cost, as attributes for the attempt's
        span under the phase span ``parent``.

        ``(fn, payload)`` is pre-pickled here and the result unpickled
        here — the timed ``dumps``/``loads`` on both sides *are* the real
        serialization work (the pool's own transport then only re-pickles
        opaque bytes), so the encode/decode seconds and byte counts
        measure exactly what the unprofiled path pays.
        """
        started = time.perf_counter()
        blob = pickle.dumps((fn, payload), protocol=pickle.HIGHEST_PROTOCOL)
        encode = time.perf_counter() - started
        result_blob, worker = submit(run_profiled_task, blob)
        started = time.perf_counter()
        result = pickle.loads(result_blob)
        decode = time.perf_counter() - started
        if worker["folded"]:
            prefix = f"{parent.attributes.get('job', '')};{parent.name};task"
            with self._lock:
                for stack, count in worker["folded"].items():
                    self._worker_folded[f"{prefix};{stack}"] += count
        return result, {
            "profile_cpu_seconds": worker["cpu_seconds"],
            "profile_pickle_seconds": {
                "parent": {"encode": encode, "decode": decode},
                "worker": {
                    "decode": worker["decode_seconds"],
                    "encode": worker["encode_seconds"],
                },
            },
            "profile_pickle_bytes": {
                "request": len(blob), "response": len(result_blob),
            },
        }

    # -- output ---------------------------------------------------------
    def folded(self) -> Dict[str, int]:
        """Merged collapsed-stack counts (parent + workers)."""
        merged: CollectionsCounter = CollectionsCounter(self.sampler.folded())
        with self._lock:
            merged.update(self._worker_folded)
        return dict(merged)

    def collapsed_stacks(self) -> str:
        """Collapsed-stack text (``stack count`` lines, flamegraph.pl
        compatible), parent samples and worker samples merged."""
        return "\n".join(
            f"{stack} {count}" for stack, count in sorted(self.folded().items())
        )

    def flame_svg(self, title: str = "CPU flame graph") -> str:
        """The run's flame graph as a self-contained SVG document."""
        return render_flame_svg(self.folded(), title=title)


# ----------------------------------------------------------------------
# Worker-process side.
# ----------------------------------------------------------------------

_worker_lock = threading.Lock()
_worker_sampler: Optional[StackSampler] = None


def _get_worker_sampler() -> StackSampler:
    global _worker_sampler
    with _worker_lock:
        if _worker_sampler is None:
            _worker_sampler = StackSampler()
            _worker_sampler.start()
        return _worker_sampler


def run_profiled_task(blob: bytes) -> Tuple[bytes, Dict[str, Any]]:
    """Worker-side body of one profiled process-pool task.

    The parent ships ``pickle.dumps((fn, payload))`` so the timed
    ``loads``/``dumps`` here are the *real* serialization work — the
    pool's own transport then only moves opaque ``bytes``, which
    re-pickle for (almost) free.  Returns the pickled task result plus
    the worker-side measurements :meth:`Profiler.ship` reports.
    """
    started = time.perf_counter()
    fn, payload = pickle.loads(blob)
    decode_seconds = time.perf_counter() - started

    sampler = _get_worker_sampler()
    tid = threading.get_ident()
    sampler.push(tid, "")
    cpu0 = time.thread_time()
    try:
        out = fn(payload)
    finally:
        cpu_seconds = max(0.0, time.thread_time() - cpu0)
        sampler.pop(tid)
    folded = sampler.drain()

    started = time.perf_counter()
    result_blob = pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)
    encode_seconds = time.perf_counter() - started
    return result_blob, {
        "cpu_seconds": cpu_seconds,
        "decode_seconds": decode_seconds,
        "encode_seconds": encode_seconds,
        "folded": folded,
    }


# ----------------------------------------------------------------------
# Flame-graph rendering (server-side SVG, no JavaScript).
# ----------------------------------------------------------------------

_FRAME_HEIGHT = 17
_MIN_TEXT_WIDTH = 35.0


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _frame_color(name: str) -> str:
    """A deterministic warm color per frame name (crc32-seeded, so the
    same function keeps its color across renders and machines)."""
    seed = zlib.crc32(name.encode("utf-8"))
    hue = seed % 55  # red..yellow band
    saturation = 65 + (seed >> 8) % 20
    lightness = 52 + (seed >> 16) % 12
    return f"hsl({hue},{saturation}%,{lightness}%)"


def _build_tree(folded: Mapping[str, int]) -> Tuple[Dict[str, Any], int]:
    """Nest collapsed stacks into ``{child_name: [count, children]}``;
    returns the root children plus the total sample count."""
    root: Dict[str, Any] = {}
    total = 0
    for stack, count in sorted(folded.items()):
        total += count
        node = root
        for part in stack.split(";"):
            entry = node.setdefault(part, [0, {}])
            entry[0] += count
            node = entry[1]
    return root, total


def _tree_depth(node: Dict[str, Any]) -> int:
    if not node:
        return 0
    return 1 + max(_tree_depth(children) for _, children in node.values())


def render_flame_svg(
    folded: Mapping[str, int],
    title: str = "CPU flame graph",
    width: float = 1200.0,
) -> str:
    """Render collapsed-stack counts as a self-contained SVG flame graph.

    Deterministic layout (children in name order), hover tooltips via
    SVG ``<title>`` elements, inline styling and zero scripting — the
    file opens identically in a browser, a README, or the dashboard.
    """
    tree, total = _build_tree(folded)
    depth = _tree_depth(tree)
    header = 28
    height = header + max(1, depth) * _FRAME_HEIGHT + 10
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{height}" viewBox="0 0 {int(width)} {height}" '
        f'font-family="Menlo, Consolas, monospace" font-size="11">',
        f'<rect x="0" y="0" width="{int(width)}" height="{height}" '
        f'fill="#0f1318"/>',
        f'<text x="8" y="18" fill="#e6e8ea" font-size="13">'
        f"{_xml_escape(title)} &#183; {total} samples</text>",
    ]
    if total == 0:
        parts.append(
            f'<text x="8" y="{header + 14}" fill="#9aa2ab">'
            "no samples collected</text>"
        )
        parts.append("</svg>")
        return "\n".join(parts)

    def emit(
        node: Dict[str, Any], x: float, level: int, scale: float
    ) -> None:
        for name in sorted(node):
            count, children = node[name]
            w = count * scale
            if w < 0.25:
                x += w
                continue
            y = header + level * _FRAME_HEIGHT
            pct = 100.0 * count / total
            label = _xml_escape(name)
            parts.append(
                f'<g><title>{label} &#8212; {count} samples '
                f"({pct:.1f}%)</title>"
                f'<rect x="{x:.2f}" y="{y}" width="{max(w - 0.5, 0.25):.2f}" '
                f'height="{_FRAME_HEIGHT - 1}" rx="1" '
                f'fill="{_frame_color(name)}"/>'
            )
            if w >= _MIN_TEXT_WIDTH:
                chars = max(1, int((w - 6) / 6.2))
                text = name if len(name) <= chars else name[: chars - 1] + "…"
                parts.append(
                    f'<text x="{x + 3:.2f}" y="{y + 12}" fill="#101418">'
                    f"{_xml_escape(text)}</text>"
                )
            parts.append("</g>")
            emit(children, x, level + 1, scale)
            x += w

    emit(tree, 0.0, 0, width / total)
    parts.append("</svg>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# The data-plane rundown: one aggregation, rendered as text here and as
# the dashboard's Data plane panel.
# ----------------------------------------------------------------------

_PHASE_ORDER = {"map": 0, "shuffle": 1, "reduce": 2}


def fmt_bytes(n: float) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(value)}{unit}"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def data_plane_rows(
    spans: Sequence[Span], registry: MetricsRegistry
) -> Tuple[List[Tuple[Any, ...]], List[Tuple[str, str]]]:
    """The per-(job, phase) rows of the ``profile`` metric group and the
    per-job notes under them.

    ``registry`` is the fold of ``spans`` (a live recorder's, or
    :func:`~repro.obs.metrics.fold_spans` of a reloaded trace).  A row
    is ``(job, phase, task cpu s, driver cpu s, peak memory bytes,
    pickle bytes, pickle s)``, in job then phase order; a note is
    ``(job, text)``.  Both are empty for a run that was not profiled.
    """
    cells: Dict[Tuple[str, ...], Dict[str, float]] = {}
    for family, column in (
        ("cpu_seconds_total", None),  # split by its ``where`` label
        ("mem_rss_peak_bytes", "rss"),
        ("mem_peak_bytes", "traced"),
        ("pickle_bytes_total", "pickle_bytes"),
        ("pickle_seconds_total", "pickle_seconds"),
        ("shm_bytes_total", "shm"),
    ):
        metric = registry.get(f"repro_profile_{family}")
        for labels, value in metric.samples() if metric is not None else ():
            cell = cells.setdefault(labels[:2], {})
            key = column or labels[2]
            cell[key] = cell.get(key, 0) + value
    rows = [
        (
            job, phase, cell.get("task", 0.0), cell.get("driver", 0.0),
            cell.get("traced", cell.get("rss", 0)),
            cell.get("pickle_bytes", 0), cell.get("pickle_seconds", 0.0),
        )
        for (job, phase), cell in sorted(
            cells.items(),
            key=lambda item: (
                item[0][0], _PHASE_ORDER.get(item[0][1], 9), item[0][1]
            ),
        )
    ]
    # The shuffle phase *is* the key sort: its span has the seconds and
    # the number of distinct keys sorted.
    sorts: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        if span.kind == "phase" and "keys" in span.attributes:
            job = str(span.attributes.get("job", span.name))
            seconds, keys = sorts.get(job, (0.0, 0))
            sorts[job] = (
                seconds + span.duration, keys + span.attributes["keys"]
            )
    notes: List[Tuple[str, str]] = []
    for job in sorted({row[0] for row in rows}):
        if job in sorts:
            notes.append(
                (job, "shuffle sort: %.3fs over %d keys" % sorts[job])
            )
        shm = sum(
            cell.get("shm", 0) for key, cell in cells.items() if key[0] == job
        )
        if shm:
            notes.append(
                (
                    job,
                    f"shm transport: {fmt_bytes(shm)} via shared memory "
                    "(columnar plane)",
                )
            )
    return rows, notes


def data_plane_summary(
    spans: Sequence[Span], registry: MetricsRegistry
) -> str:
    """The text rundown of :func:`data_plane_rows` — what ``repro run
    --profile`` prints from the live recorder and ``repro report
    --profile`` from a trace alone."""
    rows, notes = data_plane_rows(spans, registry)
    if not rows:
        return (
            "data-plane profile: no profile metrics recorded "
            "(run with --profile / REPRO_PROFILE=1)"
        )
    lines: List[str] = ["data-plane profile", "=" * 18]
    columns = (
        "phase", "task-cpu", "driver-cpu", "rss-peak", "pkl-bytes", "pkl-s",
    )
    widths = (8, 9, 10, 9, 10, 7)

    def line(cells: Sequence[str]) -> str:
        return "  " + "  ".join(
            f"{cell:<{width}}" for cell, width in zip(cells, widths)
        )

    for job in sorted({row[0] for row in rows}):
        lines.append(f"job {job}")
        lines.append(line(columns))
        for name, phase, task_cpu, driver_cpu, memory, nbytes, seconds in rows:
            if name == job:
                lines.append(
                    line(
                        (
                            phase, f"{task_cpu:.3f}s", f"{driver_cpu:.3f}s",
                            fmt_bytes(memory), fmt_bytes(nbytes),
                            f"{seconds:.3f}s",
                        )
                    )
                )
        lines.extend(f"  {text}" for name, text in notes if name == job)
    return "\n".join(lines)
