"""The job execution engine: one task-execution path.

:func:`run_job` executes one configured job against a file system,
following Hadoop's lifecycle: per-input map tasks (setup, map each
record, cleanup), optional per-map-task combiner, sort-shuffle, reduce
tasks (setup, reduce each key group in key order, cleanup), each reduce
task committing one ``part-*`` file under the job's output path.

Every map and reduce task runs as a **task-attempt loop**
(:func:`_run_task_attempts`, which documents the semantics): failed
attempts retry with backoff within the ``max_attempts`` budget, only the
winner's counters count, reduce output goes through the file
system's stage/promote commit protocol, and stragglers get speculative
backups that are discarded before commit.  A fault-free run is that
same loop with a budget of one attempt and an empty fault plan — there
is no second, "plain" path.  The run options
(:class:`~repro.mapreduce.options.RunOptions`) only choose *where* the
loop's pieces run:

* ``executor`` — ``"serial"`` drives the per-task loops inline on the
  calling thread (deterministic; what tests and benchmarks use —
  parallelism is *simulated* by the cost model, which is how the
  paper's cluster numbers are reproduced in shape) and charges injected
  delays and backoff as virtual time; ``"threads"`` and ``"processes"``
  drive one loop per task on parent-side driver threads and really
  sleep (capped).  Under ``"processes"`` each attempt's body is shipped
  to a shared :class:`~concurrent.futures.ProcessPoolExecutor`, one
  future per attempt; otherwise it runs in-process, on a pristine copy
  of the mapper/combiner/reducer whenever the task could run more than
  once.  Worker-side object mutations are *not* shipped back.

The *data plane* is not among them: the job picks it.  A job whose
mappers and reducer implement the columnar protocol, with no combiner
and routing endpoints that are exact in float64, runs on struct-of-arrays
batches and an argsort shuffle; any other job runs on the records plane
(:func:`_map_tasks_for` decides, ``docs/data_plane.md`` states the
rule).  The plane only supplies different task *bodies* to the same
loop: a vectorised in-process map body and, under ``processes``, a
reduce body whose group columns travel through shared memory.

Outcomes merge in task order, so outputs, counters and recorded span
sets are bit-identical across executors, planes and — modulo the
``faults`` counter group and the extra ``kind="attempt"`` spans — fault
plans (pinned by the parity suites).

Observation is passive and goes one way: the runner reports to one
:class:`~repro.obs.recorder.Observer` (a ``TraceRecorder``, or a
``NullRecorder`` when nobody watches) and every fact it reports is a
span — job, phase, task, attempt — carrying counter deltas, record
counts and, with a cost model, its modelled-seconds charge.  Metrics,
live progress and profiles are computed from those spans on the other
side; the runner, the shuffle and the file system do not know of them.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.columnar.batch import (
    ColumnarPairs,
    MapBlock,
    PayloadStore,
    job_columnar_gate,
)
from repro.columnar.codec import KEY_CODECS, KeyCodec
from repro.columnar.shm import pack_reduce_task, unpack_reduce_task
from repro.errors import (
    FaultInjectedError,
    MapReduceError,
    TaskTimeoutError,
    WorkerPoolError,
)
from repro.faults import CORRUPT, FAULTS_GROUP, AttemptInjector
from repro.mapreduce.counters import Counters
from repro.mapreduce.fs import FileSystem
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.options import (
    EXECUTOR_ENV,
    EXECUTORS,
    WORKERS_ENV,
    RunOptions,
    resolve_executor,
    resolve_options,
    resolve_workers,
)
from repro.mapreduce.shuffle import columnar_shuffle, shuffle
from repro.mapreduce.task import MapContext, Mapper, ReduceContext, Reducer
from repro.obs.recorder import NullRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.cost import CostModel
    from repro.obs.recorder import Observer

__all__ = [
    "run_job",
    "EXECUTORS",
    "EXECUTOR_ENV",
    "WORKERS_ENV",
    "resolve_executor",
    "resolve_workers",
    "shutdown_worker_pools",
]

# ----------------------------------------------------------------------
# Worker-process pool.  One shared pool per worker count, reused across
# jobs (and across a whole pipeline / test session) so process start-up
# is amortised.  All pool interaction happens on the parent; workers
# only ever run the module-level ``_process_attempt`` entry point, which
# keeps the backend safe under both fork and spawn start methods.
# ----------------------------------------------------------------------

_pools_lock = threading.Lock()
_pools: Dict[int, ProcessPoolExecutor] = {}


def _process_pool(workers: int) -> ProcessPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            # Start the multiprocessing resource tracker *before* the
            # first worker is forked so every worker inherits it.  The
            # columnar reduce path has workers attach SharedMemory
            # blocks; with one shared tracker the attach-registrations
            # collapse into the creator's entry and the parent's
            # ``unlink()`` is the single clean removal.  A worker forked
            # without a tracker would lazily spawn its own and report
            # the parent's already-unlinked blocks as leaked at exit.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            pool = ProcessPoolExecutor(max_workers=workers)
            _pools[workers] = pool
        return pool


def shutdown_worker_pools() -> None:
    """Shut down every cached worker pool (fresh pools are created on
    demand afterwards).  Mostly useful for embedders and tests."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def _submit_attempt(
    fn: Callable[[Any], Any], payload: Any, workers: int
) -> Any:
    """Run ``fn(payload)`` — one task attempt — on the worker pool.

    Attempts are submitted individually (never chunked): a retry must
    re-run exactly the failed task, and a per-attempt future lets
    worker-side failures map back to the one attempt that raised them.
    A broken pool is dropped from the cache before its
    :class:`BrokenProcessPool` propagates.
    """
    pool = _process_pool(workers)
    try:
        return pool.submit(fn, payload).result()
    except BrokenProcessPool:
        with _pools_lock:
            if _pools.get(workers) is pool:
                _pools.pop(workers)
        pool.shutdown(wait=False)
        raise


# ----------------------------------------------------------------------
# Task bodies.  Each runs against a *fresh* Counters instance so the same
# code executes identically in-process and in a worker process; the
# parent merges per-task counters in task order, which makes totals
# independent of the executor.  Every body ends its signature with
# ``faults``, which carries the attempt's injected events to the
# lifecycle points inside the body (combiner, cleanup).
# ----------------------------------------------------------------------

def _map_task_core(
    path: str,
    records: Sequence[Any],
    mapper: Mapper,
    combiner: Optional[Reducer],
    faults: AttemptInjector,
) -> Tuple[List[Tuple[Hashable, Any]], Counters]:
    """Run one map task (one input spec), combiner included."""
    counters = Counters()
    context = MapContext(counters, path)
    mapper.setup(context)
    for record in records:
        counters.increment("framework", "map_input_records")
        mapper.map(record, context)
    faults.check("cleanup")
    mapper.cleanup(context)
    task_pairs = context.drain()
    counters.increment("framework", "map_output_records", len(task_pairs))
    if combiner is not None:
        task_pairs = _run_combiner(combiner, task_pairs, counters, faults)
    return task_pairs, counters


def _run_combiner(
    combiner: Reducer,
    pairs: List[Tuple[Hashable, Any]],
    counters: Counters,
    faults: AttemptInjector,
) -> List[Tuple[Hashable, Any]]:
    """Apply a combiner to one map task's output, Hadoop style: the
    combiner reduces each key's values locally and re-emits pairs under
    the same key."""
    faults.check("combiner")
    counters.increment("framework", "combine_input_records", len(pairs))
    grouped: Dict[Hashable, List[Any]] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    combined: List[Tuple[Hashable, Any]] = []
    context = ReduceContext(counters, task_index=-1)
    combiner.setup(context)
    for key in sorted(grouped.keys(), key=repr):
        combiner.reduce(key, grouped[key], context)
        for record in context.drain():
            combined.append((key, record))
    combiner.cleanup(context)
    counters.increment("framework", "combine_output_records", len(combined))
    return combined


def _columnar_map_task(
    path: str,
    records: Sequence[Any],
    mapper: Mapper,
    starts: Any,
    ends: Any,
    faults: AttemptInjector,
) -> Tuple[MapBlock, Counters]:
    """Run one map task on the columnar plane, over the routing-interval
    columns the plane decision already encoded.

    Returns the emitted block and the task counters.  Counter parity
    with :func:`_map_task_core` is deliberate: ``map_input_records``
    appears only when the input is non-empty (the records plane
    increments per record), user counters come from the block (non-zero
    amounts only), ``map_output_records`` is always recorded.
    """
    counters = Counters()
    context = MapContext(counters, path)
    mapper.setup(context)
    if records:
        counters.increment("framework", "map_input_records", len(records))
    block = mapper.map_columns(starts, ends, records)
    faults.check("cleanup")
    mapper.cleanup(context)
    if context.drain():
        raise MapReduceError(
            f"columnar mapper {type(mapper).__name__} emitted records "
            "through the context; columnar emission must go through "
            "map_columns"
        )
    for (group, name), amount in block.counters.items():
        counters.increment(group, name, amount)
    counters.increment("framework", "map_output_records", len(block))
    return block, counters


def _reduce_task_core(
    reducer: Reducer,
    task_index: int,
    groups: List[Tuple[Hashable, List[Any]]],
    faults: AttemptInjector,
) -> Tuple[List[Any], Counters]:
    """Run one physical reduce task over its key groups."""
    counters = Counters()
    # Zero-initialise so even an empty task reports its input counters
    # (key routing decides which tasks receive groups at all).
    counters.increment("framework", "reduce_input_groups", 0)
    counters.increment("framework", "reduce_input_records", 0)
    context = ReduceContext(counters, task_index)
    reducer.setup(context)
    output: List[Any] = []
    for key, values in groups:
        counters.increment("framework", "reduce_input_groups")
        counters.increment("framework", "reduce_input_records", len(values))
        reducer.reduce(key, values, context)
        output.extend(context.drain())
    faults.check("cleanup")
    reducer.cleanup(context)
    output.extend(context.drain())
    counters.increment("framework", "reduce_output_records", len(output))
    return output, counters


def _shm_reduce_task(
    reducer: Reducer,
    task_index: int,
    task: Any,
    faults: AttemptInjector,
) -> Tuple[List[Any], Counters]:
    """Run one reduce task whose groups arrive as a shared-memory block
    (worker side of the columnar plane under ``processes``).

    The reducer sees store-less :class:`ColumnValues` groups and emits
    compact gid-shaped outputs; the parent materialises them.  Every
    array view into the block must be dropped before ``close()``.
    """
    groups, shm = unpack_reduce_task(task)
    try:
        return _reduce_task_core(reducer, task_index, groups, faults)
    finally:
        del groups
        if shm is not None:
            shm.close()


def _process_attempt(
    payload: Tuple[Callable[..., Tuple[Any, Counters]], Tuple, Tuple],
) -> Tuple[Any, Dict[str, Dict[str, int]], float]:
    """Worker entry point of one pooled attempt.

    The payload names a task body (module-level, so it pickles by
    reference under spawn) and its arguments; the attempt's fault events
    travel along so lifecycle crashes fire *inside* the worker and
    propagate back through the attempt's future.  Returns ``(output,
    counters_dict, seconds)`` for the parent to fold back in.
    """
    body, args, events = payload
    started = time.perf_counter()
    output, task_counters = body(*args, AttemptInjector(events))
    return output, task_counters.as_dict(), time.perf_counter() - started


# ----------------------------------------------------------------------
# What one job's phases share, and the tasks of each phase: the data
# plane and the executor only change which task body the loop is handed.
# ----------------------------------------------------------------------

@dataclass
class _JobRun:
    """One job execution: the job, where it runs and who is watching."""

    fs: FileSystem
    conf: JobConf
    options: RunOptions
    #: the observer, or a NullRecorder for an unobserved run.
    recorder: "Observer"
    cost_model: Optional["CostModel"]

    def __post_init__(self) -> None:
        faults = self.options.faults
        #: serial: per-task loops run inline on the calling thread, and
        #: injected delays/backoff are charged as virtual time.
        self.inline = self.options.executor == "serial"
        #: processes: attempt bodies are shipped to the worker pool.
        self.pooled = self.options.executor == "processes"
        #: whether any task may run more than one attempt.
        self.reruns = faults.max_attempts > 1 or faults.speculative


class _Tasks:
    """The tasks of one phase, as the attempt loop sees them.

    Subclasses name the ``phase`` and provide ``span_name(index)``;
    ``body(index)``, the task's body as ``(function, arguments)`` — the
    attempt's ``faults`` are appended at the call; and
    ``winner(index, counters, result)``, the winning attempt's span
    annotations and the counter view its span carries.  Only a winner
    closes as a ``kind="task"`` span, so whatever is computed from task
    spans is invariant under fault injection.
    """

    def __init__(self, run: _JobRun, count: int) -> None:
        self.run = run
        self.count = count
        #: whether attempt bodies run on the worker pool (else in-process).
        self.pooled = run.pooled

    def fresh(self, obj: Any) -> Any:
        """The mapper/combiner/reducer instance one attempt runs on.

        Hadoop semantics: every attempt deserialises a pristine
        instance, so a failed or backup attempt leaves no state behind
        for the next.  Pooled attempts get that from pickling; an
        in-process attempt gets a deep copy — unless the task can only
        ever run once, which uses the configured instance itself.
        """
        if self.run.reruns and not self.pooled:
            return copy.deepcopy(obj)
        return obj

    def received(self, result: Any) -> Any:
        """A pooled attempt's result as the parent consumes it."""
        return result

    # Output staging: reduce tasks commit files, map output is
    # intermediate and has nothing to stage (``stage`` says which).
    def stage(self, index: int, result: Any, attempt: int) -> bool:
        return False

    def discard(self, index: int, attempt: int) -> None:
        pass

    def close(self) -> None:
        pass


class _MapTasks(_Tasks):
    """Map tasks on the records plane: one per input spec.

    ``inputs`` holds each spec with its records, materialised up front
    by :func:`_map_tasks_for` — an attempt must be re-runnable from
    identical records, and file-system access stays on the parent.
    """

    phase = "map"
    #: the payload store of a columnar job; ``None`` on the records plane.
    store: Optional[PayloadStore] = None

    def __init__(
        self, run: _JobRun, inputs: Sequence[Tuple[Any, List[Any]]]
    ) -> None:
        super().__init__(run, len(inputs))
        self.inputs = inputs

    def span_name(self, index: int) -> str:
        return f"map:{self.inputs[index][0].path}"

    def body(self, index: int) -> Tuple[Callable[..., Any], Tuple]:
        spec, records = self.inputs[index]
        return _map_task_core, (
            spec.path, records, self.fresh(spec.mapper),
            self.fresh(self.run.conf.combiner),
        )

    def winner(
        self, index: int, counters: Counters, result: Any
    ) -> Tuple[Dict[str, Any], Dict[str, Dict[str, int]]]:
        cost_model = self.run.cost_model
        attrs: Dict[str, Any] = {
            "input": self.inputs[index][0].path,
            "output_pairs": len(result),
        }
        if cost_model is not None:
            attrs["modelled_seconds"] = (
                counters.value("framework", "map_input_records")
                * cost_model.read_cost / cost_model.parallelism
            )
        return attrs, counters.delta({})

    def collect(self, outcomes: Sequence["_TaskOutcome"]) -> Any:
        """The job's intermediate pair stream, in task order."""
        pairs: List[Tuple[Hashable, Any]] = []
        for outcome in outcomes:
            pairs.extend(outcome.result)
        return pairs


class _ColumnarMapTasks(_MapTasks):
    """Map tasks on the columnar plane.

    The body is a handful of vectorised numpy passes per input, so it
    runs in-process under every executor — pickling the records out to a
    worker would cost more than it saves.  Input records are retained in
    the job's payload store: the batch carries only payload ids, and
    values materialise lazily wherever the framework (or a reducer)
    actually needs the records-plane objects.
    """

    def __init__(
        self,
        run: _JobRun,
        inputs: Sequence[Tuple[Any, List[Any]]],
        columns: Sequence[Tuple[Any, Any]],
        codec: KeyCodec,
    ) -> None:
        super().__init__(run, inputs)
        self.pooled = False
        #: per input, the ``(starts, ends)`` routing-interval columns.
        self.columns = columns
        self.codec = codec
        self.store = PayloadStore()

    def body(self, index: int) -> Tuple[Callable[..., Any], Tuple]:
        spec, records = self.inputs[index]
        return _columnar_map_task, (
            spec.path, records, self.fresh(spec.mapper), *self.columns[index]
        )

    def collect(self, outcomes: Sequence["_TaskOutcome"]) -> Any:
        pairs = ColumnarPairs(self.codec)
        for index, ((spec, records), outcome) in enumerate(
            zip(self.inputs, outcomes)
        ):
            self.store.add_segment(index, records, spec.mapper, spec.source)
            pairs.append_block(outcome.result, index, *self.columns[index])
        return pairs


def _map_tasks_for(run: _JobRun) -> Tuple[_MapTasks, Optional[str]]:
    """The job's map tasks on the plane the job runs on — and, when that
    is the records plane, why.

    This is the whole plane decision, taken once per job before any map
    task starts: the columnar plane when the job's own gate passes
    (:func:`~repro.columnar.batch.job_columnar_gate`) and every input's
    routing endpoints encode exactly as float64 columns; the records
    plane otherwise.  Both read the same materialised inputs, and the
    encoded columns (an input's ``source`` relation's own, if it names
    one) are the ones the columnar map bodies then consume.
    """
    inputs = [
        (spec, list(run.fs.read_dir(spec.path))) for spec in run.conf.inputs
    ]
    for spec, records in inputs:
        if spec.source is not None and len(spec.source) != len(records):
            raise MapReduceError(
                f"input {spec.path!r} holds {len(records)} records, its "
                f"source relation {len(spec.source)} rows"
            )
    kind, reason = job_columnar_gate(run.conf)
    if kind is not None:
        columns = [
            spec.mapper.encode_intervals(records, spec.source)
            for spec, records in inputs
        ]
        if all(encoded is not None for encoded in columns):
            return (
                _ColumnarMapTasks(run, inputs, columns, KEY_CODECS[kind]),
                None,
            )
        reason = "endpoints-not-float64-exact"
    return _MapTasks(run, inputs), reason


class _ReduceTasks(_Tasks):
    """Reduce tasks: one per shuffled partition.

    Every attempt stages its output through the file system's commit
    protocol (``_temporary/task-NNNNN/attempt-K``); a failed or backup
    attempt's file is discarded, and ``run_job`` promotes each winner to
    its ``part-*`` file when gathering results — or, when the phase
    fails, aborts the job so that nothing stays staged.  On the columnar
    plane the groups are :class:`ColumnValues` slices that reference the
    job's payload store, and the same body applies.
    """

    phase = "reduce"

    def __init__(self, run: _JobRun, tasks: Sequence[Any]) -> None:
        super().__init__(run, len(tasks))
        self.tasks = tasks

    def span_name(self, index: int) -> str:
        return f"reduce[{index}]"

    def body(self, index: int) -> Tuple[Callable[..., Any], Tuple]:
        return _reduce_task_core, (
            self.fresh(self.run.conf.reducer), index, self.tasks[index]
        )

    def winner(
        self, index: int, counters: Counters, result: Any
    ) -> Tuple[Dict[str, Any], Dict[str, Dict[str, int]]]:
        load = counters.value("framework", "reduce_input_records")
        attrs: Dict[str, Any] = {
            "input_records": load,
            "output_records": len(result),
        }
        cost_model = self.run.cost_model
        if cost_model is not None:
            attrs["modelled_seconds"] = (
                load * cost_model.shuffle_cost
                + counters.value("work", "comparisons")
                * cost_model.comparison_cost
                + len(result) * cost_model.output_cost
            )
        return attrs, counters.snapshot()

    def stage(self, index: int, result: Any, attempt: int) -> bool:
        self.run.fs.write_attempt(self.run.conf.output, index, attempt, result)
        return True

    def discard(self, index: int, attempt: int) -> None:
        self.run.fs.discard_attempt(self.run.conf.output, index, attempt)


class _ShmReduceTasks(_ReduceTasks):
    """Columnar reduce tasks under ``processes``.

    Each task's group columns travel in one shared-memory block that the
    parent packs once — every attempt of the task, retries and backups
    included, attaches the same block through its small picklable
    descriptor — and :meth:`close` unlinks, so the pickled payload
    shrinks to the reducer plus the descriptor.  Workers return
    gid-shaped outputs, which the parent materialises through the
    payload store before staging and recording — so the committed
    records and the recorded task facts are exactly the records plane's.
    """

    def __init__(
        self, run: _JobRun, tasks: Sequence[Any], store: PayloadStore
    ) -> None:
        super().__init__(run, tasks)
        self.store = store
        self.packed: List[Tuple[Any, Any]] = []
        try:
            for groups in tasks:
                self.packed.append(pack_reduce_task(groups))
        except BaseException:
            self.close()
            raise

    def body(self, index: int) -> Tuple[Callable[..., Any], Tuple]:
        return _shm_reduce_task, (
            self.run.conf.reducer, index, self.packed[index][0]
        )

    def received(self, result: Any) -> Any:
        return self.run.conf.reducer.materialize_outputs(result, self.store)

    def close(self) -> None:
        for _, shm in self.packed:
            if shm is not None:
                shm.close()
                shm.unlink()
        self.packed = []


# ----------------------------------------------------------------------
# The task-attempt loop (Hadoop semantics) and the phase driver.
# ----------------------------------------------------------------------

@dataclass
class _TaskOutcome:
    """What one task's attempt loop produced: the winning attempt's
    result and counters (plus, in the ``faults`` group, the bookkeeping
    of the attempts that lost), which attempt number won, and whether
    the winner was plan-delayed (making it a speculation candidate)."""

    result: Any
    counters: Counters
    attempt: int
    delayed: bool


class _Attempt:
    """One attempt of one task: where its body runs and the span that
    records it.

    The span opens *live* on the parent thread that drives the attempt,
    as ``kind="task"`` before the body runs, so whoever watches spans
    open and close sees the task running on every executor.  A pooled
    attempt's body runs in a worker process; its span says so
    (``pooled=True``) and closes lasting what the worker measured.
    """

    def __init__(
        self, run: _JobRun, tasks: _Tasks, index: int, parent: Any,
        **ids: Any,
    ) -> None:
        self.run, self.tasks, self.index = run, tasks, index
        self.attrs: Dict[str, Any] = dict(
            job=run.conf.name, phase=tasks.phase, task_index=index, **ids
        )
        if tasks.pooled:
            self.attrs["pooled"] = True
        self.started = time.perf_counter()
        self.span = run.recorder.start_span(
            tasks.span_name(index), kind="task", parent=parent, **self.attrs
        )

    def run_body(
        self, faults: AttemptInjector
    ) -> Tuple[Any, Counters, float]:
        """Run the task body; returns ``(result, counters, seconds)``."""
        run, tasks = self.run, self.tasks
        body, args = tasks.body(self.index)
        if tasks.pooled:
            try:
                result, counter_dict, elapsed = _submit_attempt(
                    _process_attempt, (body, args, faults.events),
                    run.options.workers,
                )
            except BrokenProcessPool as exc:
                raise WorkerPoolError(
                    run.conf.name, tasks.phase, (self.index,), str(exc)
                ) from exc
            return (
                tasks.received(result), Counters.from_dict(counter_dict),
                elapsed,
            )
        started = time.perf_counter()
        result, task_counters = body(*args, faults)
        return result, task_counters, time.perf_counter() - started

    def close(
        self,
        kind: str,
        body_seconds: Optional[float] = None,
        counters: Optional[Dict[str, Dict[str, int]]] = None,
        virtual: float = 0.0,
    ) -> None:
        """Record the finished attempt: ``kind="task"`` for the winner,
        ``"attempt"`` for a failed or speculative one.  The span lasts
        the wall time since the attempt began, moved by backdating its
        start: ``virtual`` seconds (delay and backoff the serial
        executor charges without sleeping) lengthen it, and a pooled
        winner lasts the ``body_seconds`` its worker measured."""
        span = self.span
        span.kind = kind
        if counters:
            span.counters = counters
        span.annotate(**self.attrs)
        backdate = virtual
        if self.tasks.pooled and body_seconds is not None:
            backdate += body_seconds - (time.perf_counter() - self.started)
        span.start = max(0.0, span.start - backdate)
        self.run.recorder.end_span(span)


def _run_task_attempts(
    run: _JobRun, tasks: _Tasks, index: int, parent: Any
) -> _TaskOutcome:
    """Run one task to success within its retry budget.

    Each attempt walks Hadoop's lifecycle: exponential backoff (real
    sleeping — capped — only under the parallel executors; the serial
    executor charges it as virtual time on the winning span), injected
    ``setup`` crashes, injected delays, the task body, output staging,
    then the commit-point checks (a ``corrupt-output`` event discards
    the staged output and fails the attempt).  A failed attempt's
    counters are discarded — only the winner's merge into the job, which
    is what keeps chaos-run totals bit-identical to fault-free runs —
    and the failure is recorded as a ``kind="attempt"`` span.  The
    winner gets the ``kind="task"`` span, annotated with its ``attempt``
    number.  Once the budget is spent the *original* exception
    propagates.

    ``task_timeout`` fails any attempt whose observed time (injected
    delay included; virtual under ``serial``) exceeds the limit, feeding
    this same retry loop.
    """
    fctx = run.options.faults
    job, phase = run.conf.name, tasks.phase
    fault_counters = Counters()
    for number in range(fctx.max_attempts):
        injector = AttemptInjector(fctx.events_for(job, phase, index, number))
        backoff = fctx.backoff_seconds(number)
        if backoff and not run.inline:
            time.sleep(min(backoff, fctx.sleep_cap))
        delay = injector.delay_seconds()
        attempt = _Attempt(run, tasks, index, parent, attempt=number)
        staged = False
        try:
            injector.check("setup")
            if delay and not run.inline:
                time.sleep(min(delay, fctx.sleep_cap))
            result, task_counters, elapsed = attempt.run_body(injector)
            if fctx.task_timeout is not None:
                observed = (
                    elapsed + delay
                    if run.inline
                    else time.perf_counter() - attempt.started
                )
                if observed > fctx.task_timeout:
                    raise TaskTimeoutError(
                        job, phase, index, observed, fctx.task_timeout
                    )
            if tasks.stage(index, result, number):
                attempt.attrs["staged"] = staged = True
            if injector.corrupts_output():
                raise FaultInjectedError(CORRUPT, "commit")
            injector.check("commit")
        except Exception as exc:
            if staged:
                tasks.discard(index, number)
            fault_counters.increment(FAULTS_GROUP, "tasks_failed")
            attempt.attrs["error"] = type(exc).__name__
            if isinstance(exc, FaultInjectedError):
                attempt.attrs["fault"] = exc.kind
            attempt.close("attempt")
            if number + 1 >= fctx.max_attempts:
                raise
            fault_counters.increment(FAULTS_GROUP, "tasks_retried")
            continue
        if delay:
            attempt.attrs["fault_delay_seconds"] = delay
        attrs, view = tasks.winner(index, task_counters, result)
        attempt.attrs.update(attrs)
        attempt.close(
            "task", elapsed, view,
            virtual=delay + backoff if run.inline else 0.0,
        )
        task_counters.merge(fault_counters)
        return _TaskOutcome(result, task_counters, number, delay > 0)
    raise MapReduceError(  # pragma: no cover - loop always returns/raises
        f"task {index} of job {job!r} exhausted its attempt budget"
    )


def _speculate(
    run: _JobRun,
    tasks: _Tasks,
    outcomes: Sequence[_TaskOutcome],
    parent: Any,
) -> None:
    """Run backup attempts for straggling winners: those the fault plan
    delayed.

    First-to-finish wins — and by construction the original attempt has
    already finished, so the backup is pure wasted work: its output is
    staged, then discarded without promotion (the winner's attempt file
    commits instead), and it is counted as ``faults:speculative_wasted``
    and recorded as a speculative ``kind="attempt"`` span.  A backup
    that itself fails is swallowed (a lost speculation never fails the
    job)."""
    if not run.options.faults.speculative:
        return
    for index, outcome in enumerate(outcomes):
        if not outcome.delayed:
            continue
        number = outcome.attempt + 1
        backup = _Attempt(
            run, tasks, index, parent, attempt=number, speculative=True
        )
        try:
            result, _, _ = backup.run_body(AttemptInjector())
            if tasks.stage(index, result, number):
                tasks.discard(index, number)
                backup.attrs["staged"] = True
        except Exception as exc:
            backup.attrs["error"] = type(exc).__name__
        outcome.counters.increment(FAULTS_GROUP, "speculative_wasted")
        backup.close("attempt")


def _run_tasks(run: _JobRun, tasks: _Tasks, parent: Any) -> List[_TaskOutcome]:
    """Run every task of one phase through the attempt loop, then the
    speculation pass.  The serial executor drives the loops inline; the
    parallel executors drive one loop per task on parent-side driver
    threads.  Outcomes come back in task order either way, so what the
    caller merges is executor-independent."""
    try:
        if run.inline:
            outcomes = [
                _run_task_attempts(run, tasks, index, parent)
                for index in range(tasks.count)
            ]
        else:
            with ThreadPoolExecutor(max_workers=run.options.workers) as pool:
                futures = [
                    pool.submit(_run_task_attempts, run, tasks, index, parent)
                    for index in range(tasks.count)
                ]
                outcomes = [future.result() for future in futures]
        _speculate(run, tasks, outcomes, parent)
        return outcomes
    finally:
        tasks.close()


def run_job(
    fs: FileSystem,
    conf: JobConf,
    executor: Optional[str] = None,
    observer: Optional["Observer"] = None,
    cost_model: Optional["CostModel"] = None,
    workers: Optional[int] = None,
    faults: Any = None,
    max_attempts: Optional[int] = None,
    speculative: Optional[bool] = None,
    task_timeout: Optional[float] = None,
    *,
    options: Optional[RunOptions] = None,
) -> JobResult:
    """Execute one MapReduce job and return its measurements.

    Parameters
    ----------
    fs:
        The file system holding the inputs; outputs are written back to it.
    conf:
        The job configuration.
    observer:
        Optional :class:`~repro.obs.recorder.Observer` (a
        :class:`~repro.obs.TraceRecorder`); when given, the job, its
        phases and its tasks are recorded as spans and the
        :class:`JobResult` is registered via ``observer.record_job``.
    cost_model:
        Optional :class:`~repro.mapreduce.cost.CostModel` used only to
        attach modelled-seconds charges to the recorded spans (never
        affects execution).
    executor, workers, faults, max_attempts, speculative, task_timeout:
        The six run options as keywords, each ``None`` deferring to its
        ``$REPRO_*`` variable and then the default; resolved here by
        :func:`repro.mapreduce.options.resolve_options`, which documents
        them.  None of them changes outputs or counters.
    options:
        Already-resolved :class:`~repro.mapreduce.options.RunOptions`
        (what :class:`~repro.mapreduce.pipeline.Pipeline` passes).  When
        given, the six keywords are not consulted.

    Which data plane the job runs on is the job's own business
    (:func:`_map_tasks_for`); the job span and the :class:`JobResult`
    say which it was and, for the records plane, why.
    """
    if options is None:
        options = resolve_options(
            executor, workers, faults, max_attempts, speculative, task_timeout
        )
    if conf.num_reduce_tasks < 1:
        raise MapReduceError("a job needs at least one reduce task")
    if not conf.inputs:
        raise MapReduceError(f"job {conf.name!r} has no inputs")
    recorder = observer if observer is not None else NullRecorder()
    run = _JobRun(fs, conf, options, recorder, cost_model)
    counters = Counters()

    job_span = recorder.start_span(
        f"job:{conf.name}",
        kind="job",
        job=conf.name,
        executor=options.executor,
        num_reduce_tasks=conf.num_reduce_tasks,
        max_attempts=options.faults.max_attempts,
    )
    try:
        with recorder.span(
            "map", kind="phase", job=conf.name, tasks=len(conf.inputs)
        ) as map_span:
            map_tasks, plane_reason = _map_tasks_for(run)
            store = map_tasks.store
            data_plane = "columnar" if store is not None else "records"
            job_span.annotate(data_plane=data_plane)
            if plane_reason is not None:
                job_span.annotate(data_plane_reason=plane_reason)
            map_outcomes = _run_tasks(run, map_tasks, map_span)
            pairs = map_tasks.collect(map_outcomes)
        for outcome in map_outcomes:
            counters.merge(outcome.counters)
        # Inputs and per-task pair lists are dead weight from here on.
        del map_tasks, map_outcomes
        counters.increment("framework", "shuffle_records", len(pairs))

        if store is not None:
            logical_loads: Dict[Hashable, int] = pairs.logical_loads()
        else:
            logical_loads = defaultdict(int)
            for key, _ in pairs:
                logical_loads[key] += 1

        # The shuffle phase is the sort of the distinct keys.
        with recorder.span(
            "shuffle", kind="phase", job=conf.name, tasks=1,
            records=len(pairs), keys=len(logical_loads),
            reduce_tasks=conf.num_reduce_tasks,
        ) as shuffle_span:
            if store is not None:
                tasks = columnar_shuffle(
                    pairs, conf.num_reduce_tasks, conf.partitioner,
                    store=store,
                )
            else:
                tasks = shuffle(pairs, conf.num_reduce_tasks, conf.partitioner)
            if cost_model is not None:
                shuffle_span.annotate(
                    modelled_seconds=len(pairs)
                    * cost_model.shuffle_cost
                    / cost_model.parallelism
                )
        reduce_task_loads = [
            sum(len(values) for _, values in groups) for groups in tasks
        ]

        try:
            with recorder.span(
                "reduce", kind="phase", job=conf.name, tasks=len(tasks)
            ) as reduce_span:
                if store is not None and run.pooled:
                    reduce_tasks = _ShmReduceTasks(run, tasks, store)
                    reduce_span.annotate(
                        shm_bytes=sum(d.nbytes for d, _ in reduce_tasks.packed)
                    )
                else:
                    reduce_tasks = _ReduceTasks(run, tasks)
                reduce_outcomes = _run_tasks(run, reduce_tasks, reduce_span)

            for index, outcome in enumerate(reduce_outcomes):
                counters.merge(outcome.counters)
                # Commit: promote the winning attempt's staged file.
                fs.promote_attempt(conf.output, index, outcome.attempt)
        except BaseException:
            # Abort: the job will not commit, so what its other tasks
            # staged must not outlive it — an interrupt included.
            fs.abort_job(conf.output)
            raise
        task_outputs = [len(outcome.result) for outcome in reduce_outcomes]

        result = JobResult(
            name=conf.name,
            counters=counters,
            reduce_task_loads=reduce_task_loads,
            logical_reducer_loads=dict(logical_loads),
            output=conf.output,
            output_records=sum(task_outputs),
            reduce_task_outputs=task_outputs,
            reduce_task_comparisons=[
                outcome.counters.value("work", "comparisons")
                for outcome in reduce_outcomes
            ],
            data_plane=data_plane,
            data_plane_reason=plane_reason,
        )
        job_span.counters = counters.snapshot()
        job_span.annotate(
            output_records=result.output_records,
            shuffled_records=len(pairs),
            reduce_task_loads=list(reduce_task_loads),
            key_loads=sorted(logical_loads.values()),
            promoted=len(reduce_outcomes),
        )
        if cost_model is not None:
            job_span.annotate(modelled_seconds=cost_model.job_time(result))
        recorder.record_job(result)
        return result
    finally:
        recorder.end_span(job_span)
