"""The data-plane profiler: CPU, memory and serialization accounting.

``BENCH_executors.json`` shows the parallel executors barely beating —
or losing to — the serial one.  The ROADMAP blames the Python-object
data plane (pickle shipping, repr-sorting, GC churn), but spans only
time *phases*; nothing attributes cost to the *boundaries*.  This module
closes that gap.  When a run is profiled (``repro run --profile`` /
``$REPRO_PROFILE``), a :class:`Profiler` rides along on the
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
* **GC** — pause counts and durations per phase via ``gc.callbacks``.
* **Serialization** — pickle bytes and encode/decode wall seconds at
  the processes-executor dispatch (both parent and worker side), the
  shuffle's repr-sort seconds and per-partition key-repr bytes, and
  staged-file repr bytes in the commit protocol.

Everything publishes through the run's
:class:`~repro.obs.metrics.MetricsRegistry` under the ``profile`` group
— machine- and executor-dependent by nature, so excluded from the
parity fingerprint exactly like ``wall`` — plus annotations on the
phase spans.  Profiling is strictly passive: with it off nothing in
this module runs, and with it on the run's deterministic outputs and
``run``-group metrics are bit-identical (pinned by the profiler
passivity tests).
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
import threading
import time
import zlib
from collections import Counter as CollectionsCounter
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.obs.metrics import GROUP_PROFILE, MetricsRegistry

__all__ = [
    "PROFILE_ENV",
    "LEVEL_CPU",
    "LEVEL_FULL",
    "BYTES_BUCKETS",
    "resolve_profile",
    "StackSampler",
    "Profiler",
    "run_profiled_task",
    "render_flame_svg",
    "data_plane_summary",
]

#: Environment variable enabling profiling (``repro run --profile`` on
#: the CLI).  Empty / ``0`` / ``false`` / ``no`` / ``off`` disable;
#: ``full`` selects :data:`LEVEL_FULL`; any other value selects
#: :data:`LEVEL_CPU`.
PROFILE_ENV = "REPRO_PROFILE"

#: Default level: sampler + thread-time CPU, GC pauses, serialization
#: accounting and cheap memory watermarks.  Overhead is gated < 10%
#: (``benchmarks/bench_profile.py``).
LEVEL_CPU = "cpu"

#: Adds tracemalloc current/peak traced-byte watermarks per phase.
#: Exact, but far beyond the 10% overhead budget — opt-in only.
LEVEL_FULL = "full"

_FALSEY = ("", "0", "false", "no", "off")

#: Fixed boundaries for byte-size histograms (per-partition key-repr
#: bytes); mergeable by addition like every other fixed-bucket family.
BYTES_BUCKETS: Tuple[float, ...] = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0, 67108864.0,
)

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


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic collector from starting inside the block.

    For short calls into C-level state that is not safe against the
    Python code a collection runs (``gc.callbacks``, finalisers), and
    for a whole ``JoinAlgorithm.run``.  Pauses nest; one ending on
    another thread can cut this one short, never leave the collector off.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


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
        # thread-list lock; a collection started there runs gc callbacks,
        # which can hand the GIL to a thread that then blocks on that
        # lock (another sampler, a thread starting or exiting) for good.
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

# tracemalloc and gc.callbacks are process-global; a refcount keeps
# concurrently-active profilers (parallel tests) from stopping each
# other's collection.
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


class Profiler:
    """Collects data-plane facts for one profiled run.

    Wire-up: :class:`~repro.obs.recorder.TraceRecorder` constructs one
    (``TraceRecorder(profile=...)``), calls :meth:`on_span_start` /
    :meth:`on_span_end` around every span, and :meth:`stop` on close.
    The runner, shuffle and file system record through the explicit
    ``record_*`` hooks whenever ``observer.profiler`` is present.

    All hooks are safe to call from worker threads; the worker-process
    side ships a compact profile dict back (see :func:`run_profiled_task`)
    which the parent folds in via :meth:`absorb_worker`.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        level: str = LEVEL_CPU,
        interval: float = 0.004,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.level = level
        self.sampler = StackSampler(interval=interval)
        # Reentrant: the GC callback (_on_gc) runs on whichever thread
        # triggered the collection — possibly one already inside a
        # ``with self._lock`` block that allocated.
        self._lock = threading.RLock()
        #: (job, phase) context stack for GC / memory attribution.
        self._phase_stack: List[Tuple[str, str]] = []
        #: span_id -> (thread_time0, rss0, blocks0) for open phase spans.
        self._phase_state: Dict[int, Tuple[float, int, int]] = {}
        #: span_id -> thread_time0 for open task spans.
        self._task_state: Dict[int, float] = {}
        #: collapsed stacks absorbed from worker processes.
        self._worker_folded: CollectionsCounter = CollectionsCounter()
        self._gc_started_at: Optional[float] = None
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sampler.push(threading.get_ident(), "driver")
        self.sampler.start()
        gc.callbacks.append(self._on_gc)
        if self.level == LEVEL_FULL:
            _tracemalloc_acquire()

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self.sampler.stop()
        try:
            gc.callbacks.remove(self._on_gc)
        except ValueError:  # pragma: no cover - already removed
            pass
        if self.level == LEVEL_FULL:
            _tracemalloc_release()

    # -- metric families ------------------------------------------------
    def _cpu(self):
        return self.registry.counter(
            "repro_profile_cpu_seconds_total",
            "CPU seconds, thread_time-measured.  where=task charges task "
            "bodies (worker-side under processes); where=driver charges "
            "the coordinating thread across the phase — under the serial "
            "executor task CPU is a subset of driver CPU.",
            labels=("job", "phase", "where"),
            group=GROUP_PROFILE,
        )

    def _gc_pauses(self):
        return self.registry.counter(
            "repro_profile_gc_pauses_total",
            "Garbage-collection passes observed during each phase.",
            labels=("job", "phase"),
            group=GROUP_PROFILE,
        )

    def _gc_seconds(self):
        return self.registry.counter(
            "repro_profile_gc_pause_seconds_total",
            "Wall seconds spent inside garbage-collection passes.",
            labels=("job", "phase"),
            group=GROUP_PROFILE,
        )

    def _pickle_seconds(self):
        return self.registry.counter(
            "repro_profile_pickle_seconds_total",
            "Wall seconds spent pickling (encode) / unpickling (decode) "
            "task payloads and results at the processes-executor "
            "boundary, split by side.",
            labels=("job", "phase", "side", "op"),
            group=GROUP_PROFILE,
        )

    def _pickle_bytes(self):
        return self.registry.counter(
            "repro_profile_pickle_bytes_total",
            "Pickled bytes shipped across the process boundary: "
            "direction=request (payloads out) / response (results back).",
            labels=("job", "phase", "direction"),
            group=GROUP_PROFILE,
        )

    # -- span hooks -----------------------------------------------------
    def on_span_start(self, span: Any) -> None:
        tid = threading.get_ident()
        if span.kind == "phase":
            job = str(span.attributes.get("job", span.name))
            with self._lock:
                self._phase_stack.append((job, span.name))
                self._phase_state[span.span_id] = (
                    time.thread_time(),
                    _rss_peak_bytes(),
                    sys.getallocatedblocks(),
                )
            self.sampler.push(tid, f"{job};{span.name}")
            if self.level == LEVEL_FULL:
                self._tracemalloc_reset_peak()
        elif span.kind == "task":
            job = str(span.attributes.get("job", ""))
            phase = str(span.attributes.get("phase", span.name))
            with self._lock:
                self._task_state[span.span_id] = time.thread_time()
            self.sampler.push(tid, f"{job};{phase};task")

    def on_span_end(self, span: Any) -> None:
        tid = threading.get_ident()
        if span.kind == "phase":
            job = str(span.attributes.get("job", span.name))
            phase = span.name
            with self._lock:
                state = self._phase_state.pop(span.span_id, None)
                if self._phase_stack and self._phase_stack[-1] == (job, phase):
                    self._phase_stack.pop()
            self.sampler.pop(tid)
            if state is None:
                return
            cpu0, _, _ = state
            driver_cpu = max(0.0, time.thread_time() - cpu0)
            self._cpu().inc(driver_cpu, job=job, phase=phase, where="driver")
            rss_peak = _rss_peak_bytes()
            blocks = sys.getallocatedblocks()
            self.registry.gauge(
                "repro_profile_mem_rss_peak_bytes",
                "Process peak RSS at phase end (monotonic across phases).",
                labels=("job", "phase"),
                group=GROUP_PROFILE,
            ).set(rss_peak, job=job, phase=phase)
            self.registry.gauge(
                "repro_profile_mem_alloc_blocks",
                "Live interpreter allocation blocks at phase end.",
                labels=("job", "phase"),
                group=GROUP_PROFILE,
            ).set(blocks, job=job, phase=phase)
            span.annotate(
                profile_cpu_driver_seconds=driver_cpu,
                profile_mem_rss_peak_bytes=rss_peak,
                profile_mem_alloc_blocks=blocks,
            )
            if self.level == LEVEL_FULL:
                self._record_tracemalloc(span, job, phase)
        elif span.kind in ("task", "attempt"):
            # "attempt": a task span the runner opened live and closed as
            # a failed or speculative attempt — same CPU and sampler
            # bookkeeping, or the thread's sampler label would leak.
            with self._lock:
                cpu0 = self._task_state.pop(span.span_id, None)
            self.sampler.pop(tid)
            if cpu0 is None:
                return
            cpu = max(0.0, time.thread_time() - cpu0)
            job = str(span.attributes.get("job", ""))
            phase = str(span.attributes.get("phase", span.name))
            self._cpu().inc(cpu, job=job, phase=phase, where="task")
            span.annotate(profile_cpu_seconds=cpu)

    def _tracemalloc_reset_peak(self) -> None:
        import tracemalloc

        try:
            tracemalloc.reset_peak()
        except (AttributeError, RuntimeError):  # pragma: no cover - <3.9
            pass

    def _record_tracemalloc(self, span: Any, job: str, phase: str) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():  # pragma: no cover - defensive
            return
        current, peak = tracemalloc.get_traced_memory()
        self.registry.gauge(
            "repro_profile_mem_current_bytes",
            "tracemalloc-traced bytes live at phase end (level=full).",
            labels=("job", "phase"),
            group=GROUP_PROFILE,
        ).set(current, job=job, phase=phase)
        self.registry.gauge(
            "repro_profile_mem_peak_bytes",
            "tracemalloc peak traced bytes within the phase (level=full).",
            labels=("job", "phase"),
            group=GROUP_PROFILE,
        ).set(peak, job=job, phase=phase)
        span.annotate(
            profile_mem_current_bytes=current, profile_mem_peak_bytes=peak
        )

    # -- GC accounting --------------------------------------------------
    def _gc_context(self) -> Tuple[str, str]:
        with self._lock:
            if self._phase_stack:
                return self._phase_stack[-1]
        return ("driver", "driver")

    def _on_gc(self, phase: str, info: Mapping[str, Any]) -> None:
        if phase == "start":
            self._gc_started_at = time.perf_counter()
            return
        started = self._gc_started_at
        self._gc_started_at = None
        if started is None:
            return
        pause = max(0.0, time.perf_counter() - started)
        job, ctx_phase = self._gc_context()
        try:
            self._gc_pauses().inc(1, job=job, phase=ctx_phase)
            self._gc_seconds().inc(pause, job=job, phase=ctx_phase)
        except Exception:  # pragma: no cover - never break a GC pass
            pass

    # -- serialization boundaries ---------------------------------------
    def record_pickle(
        self, job: str, phase: str, side: str, op: str, seconds: float
    ) -> None:
        """Charge encode/decode wall seconds at the process boundary."""
        self._pickle_seconds().inc(
            seconds, job=job, phase=phase, side=side, op=op
        )

    def record_pickle_bytes(
        self, job: str, phase: str, direction: str, nbytes: int
    ) -> None:
        """Charge pickled bytes shipped across the process boundary."""
        self._pickle_bytes().inc(
            nbytes, job=job, phase=phase, direction=direction
        )

    def ship(
        self,
        job: str,
        phase: str,
        fn: Any,
        payload: Any,
        submit: Any,
    ) -> Any:
        """Run ``fn(payload)`` in a worker through ``submit(fn, payload)``,
        charging the process boundary (parent side of
        :func:`run_profiled_task`).

        ``(fn, payload)`` is pre-pickled here and the result unpickled
        here — the timed ``dumps``/``loads`` on both sides *are* the real
        serialization work (the pool's own transport then only re-pickles
        opaque bytes), so the recorded encode/decode seconds and byte
        counts measure exactly what the unprofiled path pays.
        """
        started = time.perf_counter()
        blob = pickle.dumps((fn, payload), protocol=pickle.HIGHEST_PROTOCOL)
        self.record_pickle(
            job, phase, "parent", "encode", time.perf_counter() - started
        )
        self.record_pickle_bytes(job, phase, "request", len(blob))
        result_blob, wprof = submit(run_profiled_task, blob)
        started = time.perf_counter()
        result = pickle.loads(result_blob)
        self.record_pickle(
            job, phase, "parent", "decode", time.perf_counter() - started
        )
        self.record_pickle_bytes(job, phase, "response", len(result_blob))
        self.absorb_worker(job, phase, wprof)
        return result

    def record_shm_bytes(
        self, job: str, phase: str, direction: str, nbytes: int
    ) -> None:
        """Charge bytes transported through shared-memory blocks at the
        columnar plane's process boundary (these bytes are *not* pickled
        — the pickle families shrink to descriptors when shm carries the
        data, which is the collapse this family makes visible)."""
        self.registry.counter(
            "repro_profile_shm_bytes_total",
            "Column bytes shipped via multiprocessing.shared_memory "
            "blocks instead of pickles (columnar data plane).",
            labels=("job", "phase", "direction"),
            group=GROUP_PROFILE,
        ).inc(nbytes, job=job, phase=phase, direction=direction)

    def record_shuffle_sort(self, job: str, seconds: float, keys: int) -> None:
        """Charge the shuffle's repr-sort: wall seconds and keys sorted."""
        self.registry.counter(
            "repro_profile_shuffle_sort_seconds_total",
            "Wall seconds spent repr-sorting distinct shuffle keys.",
            labels=("job",),
            group=GROUP_PROFILE,
        ).inc(seconds, job=job)
        self.registry.counter(
            "repro_profile_shuffle_sort_keys_total",
            "Distinct keys repr-sorted by the shuffle.",
            labels=("job",),
            group=GROUP_PROFILE,
        ).inc(keys, job=job)

    def record_partition_key_bytes(
        self, job: str, per_partition: Iterable[int]
    ) -> None:
        """Record per-partition key-repr byte sizes (the shuffle's
        communication-cost proxy, measured on the reprs it already
        computed — no extra ``repr`` calls)."""
        histogram = self.registry.histogram(
            "repro_profile_partition_key_repr_bytes",
            "UTF-8 key-repr bytes routed to each reduce partition.",
            labels=("job",),
            group=GROUP_PROFILE,
            buckets=BYTES_BUCKETS,
        )
        for nbytes in per_partition:
            histogram.observe(nbytes, job=job)

    def record_staged_bytes(self, nbytes: int) -> None:
        """Charge repr bytes staged through the fs commit protocol."""
        self.registry.counter(
            "repro_profile_fs_staged_bytes_total",
            "Repr bytes written to staged attempt files (extrapolated "
            "from a per-file record sample; exact for small files).",
            labels=(),
            group=GROUP_PROFILE,
        ).inc(nbytes)

    def absorb_worker(
        self, job: str, phase: str, wprof: Mapping[str, Any]
    ) -> None:
        """Fold one worker-process task profile in (parent side)."""
        cpu = float(wprof.get("cpu_seconds", 0.0))
        if cpu:
            self._cpu().inc(cpu, job=job, phase=phase, where="task")
        decode = float(wprof.get("decode_seconds", 0.0))
        encode = float(wprof.get("encode_seconds", 0.0))
        if decode:
            self.record_pickle(job, phase, "worker", "decode", decode)
        if encode:
            self.record_pickle(job, phase, "worker", "encode", encode)
        folded = wprof.get("folded") or {}
        if folded:
            prefix = f"{job};{phase};task"
            with self._lock:
                for stack, count in folded.items():
                    self._worker_folded[f"{prefix};{stack}"] += count

    # -- output ---------------------------------------------------------
    def collapsed_stacks(self) -> str:
        """Collapsed-stack text (``stack count`` lines, flamegraph.pl
        compatible), parent samples and worker samples merged."""
        merged: CollectionsCounter = CollectionsCounter(self.sampler.folded())
        with self._lock:
            merged.update(self._worker_folded)
        return "\n".join(
            f"{stack} {count}" for stack, count in sorted(merged.items())
        )

    def folded(self) -> Dict[str, int]:
        """Merged collapsed-stack counts (parent + workers)."""
        merged: CollectionsCounter = CollectionsCounter(self.sampler.folded())
        with self._lock:
            merged.update(self._worker_folded)
        return dict(merged)

    def flame_svg(self, title: str = "CPU flame graph") -> str:
        """The run's flame graph as a self-contained SVG document."""
        return render_flame_svg(self.folded(), title=title)

    def summary(self) -> str:
        """The human-readable data-plane summary of this run."""
        return data_plane_summary(self.registry)


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
    a profile dict the parent folds in via :meth:`Profiler.absorb_worker`.
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
        "request_bytes": len(blob),
        "response_bytes": len(result_blob),
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
# The data-plane summary (CLI + dashboard text form).
# ----------------------------------------------------------------------

def _fmt_bytes(n: float) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(value)}{unit}"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def _samples_of(registry: MetricsRegistry, name: str):
    metric = registry.get(name)
    return metric.samples() if metric is not None else []


def data_plane_summary(registry: MetricsRegistry) -> str:
    """A per-job, per-phase rundown of the ``profile`` metric group.

    Readable from a live registry (``repro run --profile``) or one
    rebuilt from a metrics JSON snapshot (``repro report --profile``).
    """
    cpu: Dict[Tuple[str, str], Dict[str, float]] = {}
    for (job, phase, where), value in _samples_of(
        registry, "repro_profile_cpu_seconds_total"
    ):
        cpu.setdefault((job, phase), {})[where] = value
    if not cpu:
        return (
            "data-plane profile: no profile metrics recorded "
            "(run with --profile / REPRO_PROFILE=1)"
        )

    gc_pauses = {
        key[:2]: value
        for key, value in _samples_of(
            registry, "repro_profile_gc_pauses_total"
        )
    }
    gc_seconds = {
        key[:2]: value
        for key, value in _samples_of(
            registry, "repro_profile_gc_pause_seconds_total"
        )
    }
    rss = {
        key[:2]: value
        for key, value in _samples_of(
            registry, "repro_profile_mem_rss_peak_bytes"
        )
    }
    traced_peak = {
        key[:2]: value
        for key, value in _samples_of(
            registry, "repro_profile_mem_peak_bytes"
        )
    }
    pickle_bytes: Dict[Tuple[str, str], Dict[str, float]] = {}
    for (job, phase, direction), value in _samples_of(
        registry, "repro_profile_pickle_bytes_total"
    ):
        pickle_bytes.setdefault((job, phase), {})[direction] = value
    pickle_seconds: Dict[Tuple[str, str], float] = {}
    for (job, phase, _side, _op), value in _samples_of(
        registry, "repro_profile_pickle_seconds_total"
    ):
        key = (job, phase)
        pickle_seconds[key] = pickle_seconds.get(key, 0.0) + value

    jobs = sorted({job for job, _ in cpu} - {"driver"})
    if not jobs:
        jobs = sorted({job for job, _ in cpu})
    lines: List[str] = ["data-plane profile", "=" * 18]
    columns = (
        "phase", "task-cpu", "driver-cpu", "gc", "gc-s",
        "rss-peak", "pkl-bytes", "pkl-s",
    )
    widths = (8, 9, 10, 4, 7, 9, 10, 7)
    phase_order = {"map": 0, "shuffle": 1, "reduce": 2}
    for job in jobs:
        lines.append(f"job {job}")
        lines.append(
            "  " + "  ".join(
                f"{col:<{w}}" for col, w in zip(columns, widths)
            )
        )
        phases = sorted(
            {phase for j, phase in cpu if j == job},
            key=lambda p: (phase_order.get(p, 9), p),
        )
        for phase in phases:
            key = (job, phase)
            by_where = cpu.get(key, {})
            pbytes = pickle_bytes.get(key, {})
            total_pickle = sum(pbytes.values())
            memory = traced_peak.get(key, rss.get(key, 0))
            row = (
                phase,
                f"{by_where.get('task', 0.0):.3f}s",
                f"{by_where.get('driver', 0.0):.3f}s",
                f"{int(gc_pauses.get(key, 0))}",
                f"{gc_seconds.get(key, 0.0):.3f}s",
                _fmt_bytes(memory),
                _fmt_bytes(total_pickle),
                f"{pickle_seconds.get(key, 0.0):.3f}s",
            )
            lines.append(
                "  " + "  ".join(
                    f"{cell:<{w}}" for cell, w in zip(row, widths)
                )
            )
        for (j,), seconds in _samples_of(
            registry, "repro_profile_shuffle_sort_seconds_total"
        ):
            if j != job:
                continue
            keys_metric = registry.get("repro_profile_shuffle_sort_keys_total")
            keys = 0
            if keys_metric is not None:
                keys = int(keys_metric.value(job=job))
            lines.append(
                f"  shuffle repr-sort: {seconds:.3f}s over {keys} keys"
            )
        shm_total = sum(
            value
            for (j, _phase, _direction), value in _samples_of(
                registry, "repro_profile_shm_bytes_total"
            )
            if j == job
        )
        if shm_total:
            lines.append(
                f"  shm transport: {_fmt_bytes(shm_total)} via shared "
                "memory (columnar plane)"
            )
    staged = registry.get("repro_profile_fs_staged_bytes_total")
    if staged is not None:
        total_staged = staged.value()
        if total_staged:
            lines.append(f"fs staged bytes: {_fmt_bytes(total_staged)}")
    driver_gc = gc_pauses.get(("driver", "driver"), 0)
    if driver_gc:
        lines.append(
            f"driver (outside phases): {int(driver_gc)} gc pauses, "
            f"{gc_seconds.get(('driver', 'driver'), 0.0):.3f}s paused"
        )
    return "\n".join(lines)
