"""The job execution engine: one task-execution path, one data plane.

:func:`run_job` executes one configured job against a file system,
following Hadoop's lifecycle: per-input map tasks, sort-shuffle, reduce
tasks (each key group in key order), each reduce task committing one
``part-*`` file under the job's output path.  Its two halves,
:func:`_map_and_shuffle` and :func:`_reduce_and_commit`, are also what
the exact prediction tier (:mod:`repro.core.predict`) runs.

A job is a :class:`~repro.mapreduce.task.KernelReducer` fed by
:class:`~repro.mapreduce.task.Mapper` inputs of one key kind
(:func:`_job_key_kind` refuses any other before a map task starts), and
its pairs travel as columns (``docs/data_plane.md``): a map task is a
vectorised pass per input, a reduce task runs the kernel per group and
returns its gid block, formatted once per task on the parent.

Every map and reduce task runs as a **task-attempt loop**
(:func:`_run_task_attempts`, which documents the semantics): failed
attempts retry within the ``max_attempts`` budget, only the winner's
counters count, and reduce output goes through the file system's
stage/promote commit protocol.  A fault-free run is that same loop with
a budget of one attempt and an empty fault plan — there is no second,
"plain" path.  The run options
(:class:`~repro.mapreduce.options.RunOptions`) only choose *where* the
loop's pieces run:

* ``executor`` — ``"serial"`` drives the per-task loops inline on the
  calling thread (deterministic; what tests and benchmarks use —
  parallelism is *simulated* by the cost model, which is how the
  paper's cluster numbers are reproduced in shape); ``"threads"`` and
  ``"processes"`` drive one loop per task on parent-side driver
  threads.  Under ``"processes"`` each reduce attempt's body is shipped
  to a shared :class:`~concurrent.futures.ProcessPoolExecutor`, one
  future per attempt; a map body, and every body under the other
  executors, runs in-process, on a pristine copy of the mapper/reducer
  whenever the task could run more than once.  Worker-side object
  mutations are *not* shipped back.

Outcomes merge in task order, so outputs, counters and recorded span
sets are bit-identical across executors and — modulo the ``faults``
counter group and the extra ``kind="attempt"`` spans — fault plans
(pinned by the parity suites).

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
from collections.abc import Sequence as SequenceABC
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.columnar.batch import ColumnarPairs, IndexBlock, MapBlock, PayloadStore
from repro.columnar.codec import KEY_CODECS, KeyCodec
from repro.columnar.shm import pack_reduce_task, unpack_reduce_task
from repro.errors import FaultInjectedError, MapReduceError, WorkerPoolError
from repro.faults import CORRUPT, FAULTS_GROUP, AttemptInjector
from repro.mapreduce.counters import Counters
from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.options import RunOptions, resolve_options
from repro.mapreduce.shuffle import columnar_shuffle
from repro.mapreduce.task import KernelReducer, Mapper
from repro.obs.recorder import NullRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.cost import CostModel
    from repro.obs.recorder import Observer

__all__ = ["run_job", "shutdown_worker_pools"]

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
# lifecycle point inside the body: ``cleanup``, after the task's work and
# before its output leaves the body, where Hadoop runs a task's cleanup
# hook.  No task here has one; the point stays so that a seeded plan
# hits the same attempts at the same places and chaos runs stay
# bit-identical.
# ----------------------------------------------------------------------

def _map_task(
    records: Sequence[Any],
    mapper: Mapper,
    starts: Any,
    ends: Any,
    terms: Any,
    order: Optional[np.ndarray],
    faults: AttemptInjector,
) -> Tuple[MapBlock, Counters]:
    """Run one map task (one input spec) over the routing-interval (and
    further term) columns :func:`_map_tasks_for` encoded — read through
    ``order`` when the input is mapped in start order, the emitted row
    indices mapped back through it to the records' own.

    Returns the emitted block and the task counters:
    ``map_input_records`` only when the input is non-empty, user
    counters from the block (non-zero amounts only),
    ``map_output_records`` always.
    """
    counters = Counters()
    if records:
        counters.increment("framework", "map_input_records", len(records))
    block = mapper.map_columns(starts, ends, records, terms)
    if order is not None:
        block.row_idx = order[block.row_idx]
    faults.check("cleanup")
    for (group, name), amount in block.counters.items():
        counters.increment(group, name, amount)
    counters.increment("framework", "map_output_records", len(block))
    return block, counters


def _reduce_task_core(
    reducer: KernelReducer,
    groups: List[Tuple[Hashable, Any]],
    faults: AttemptInjector,
) -> Tuple[np.ndarray, Counters]:
    """Run one physical reduce task over its key groups: the kernel per
    group, returning the blocks as one int64 array for the parent to
    format."""
    counters = Counters()
    # Counted up front, so even an empty task reports its input counters
    # (key routing decides which tasks receive groups at all).
    counters.increment("framework", "reduce_input_groups", len(groups))
    counters.increment(
        "framework", "reduce_input_records", sum(len(values) for _, values in groups)
    )
    blocks = [reducer.kernel(key, values, counters) for key, values in groups]
    faults.check("cleanup")
    # A kernel's block is its own array, so one group's passes as it is
    # — in the kernel's layout, which concatenating non-empty blocks
    # keeps too (an empty one would turn a column-major result
    # row-major).
    blocks = [block for block in blocks if len(block)] or blocks[:1]
    if not blocks:
        output = np.empty((0, 0), dtype=np.int64)
    elif len(blocks) == 1:
        output = blocks[0]
    else:
        output = np.concatenate(blocks)
    counters.increment("framework", "reduce_output_records", len(output))
    return output, counters


def _shm_reduce_task(
    reducer: KernelReducer,
    task: Any,
    faults: AttemptInjector,
) -> Tuple[np.ndarray, Counters]:
    """Run one reduce task whose groups arrive as a shared-memory block
    (the worker side under ``processes``).  Every array view into the
    block must be dropped before ``close()``; the block returned is a
    fresh array."""
    groups, shm = unpack_reduce_task(task)
    try:
        return _reduce_task_core(reducer, groups, faults)
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
# What one job's phases share, and the tasks of each phase: the executor
# only changes where the loop runs a task's body.
# ----------------------------------------------------------------------

@dataclass
class _JobRun:
    """One job execution: the job, where it runs and who is watching."""

    fs: InMemoryFileSystem
    conf: JobConf
    options: RunOptions
    #: the observer, or a NullRecorder for an unobserved run.
    recorder: "Observer"
    cost_model: Optional["CostModel"]

    def __post_init__(self) -> None:
        #: serial: per-task loops run inline on the calling thread.
        self.inline = self.options.executor == "serial"
        #: whether any task may run more than one attempt.
        self.reruns = self.options.faults.max_attempts > 1
        #: the key kind every input's mapper keys by.
        self.key_kind = _job_key_kind(self.conf)


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

    #: whether attempt bodies run on the worker pool (else in-process).
    pooled = False

    def __init__(self, run: _JobRun, count: int) -> None:
        self.run = run
        self.count = count

    def fresh(self, obj: Any) -> Any:
        """The mapper/reducer instance one attempt runs on.

        Hadoop semantics: every attempt deserialises a pristine
        instance, so a failed attempt leaves no state behind
        for the next.  Pooled attempts get that from pickling; an
        in-process attempt gets a deep copy — unless the task can only
        ever run once, which uses the configured instance itself.  A
        kernel may hold state across groups; no attempt may see what a
        failed one left behind.
        """
        if self.run.reruns and not self.pooled:
            return copy.deepcopy(obj)
        return obj

    def received(self, result: Any) -> Any:
        """An attempt's result, as its body returned it, in the form the
        parent stages and records."""
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
    """Map tasks: one per input spec.

    ``inputs`` holds each spec with its records, materialised up front
    by :func:`_map_tasks_for` — an attempt must be re-runnable from
    identical records, and file-system access stays on the parent.  The
    body is a handful of vectorised numpy passes per input, so it runs
    in-process under every executor — pickling the records out to a
    worker would cost more than it saves.  Input records are retained in
    the job's payload store: the pairs carry only payload ids.

    An input whose mapper names a :meth:`~Mapper.start_order` is mapped
    in it — records and columns read through the permutation — so its
    pairs reach every key group in start order; the block's row indices
    come back as the records' own, so payload ids, the store and what
    the job commits do not depend on the order.
    """

    phase = "map"

    def __init__(
        self,
        run: _JobRun,
        inputs: Sequence[Tuple[Any, List[Any]]],
        columns: Sequence[Tuple[Any, Any, Any]],
        orders: Sequence[Optional[np.ndarray]],
        codec: KeyCodec,
    ) -> None:
        super().__init__(run, len(inputs))
        self.inputs = inputs
        #: per input, its ``(starts, ends, terms)`` columns.
        self.columns = columns
        #: per input, the order it is mapped in (``None``: as it is).
        self.orders = orders
        self.codec = codec
        self.store = PayloadStore()

    def span_name(self, index: int) -> str:
        return f"map:{self.inputs[index][0].path}"

    def body(self, index: int) -> Tuple[Callable[..., Any], Tuple]:
        spec, records = self.inputs[index]
        starts, ends, terms = self.columns[index]
        order = self.orders[index]
        if order is not None:
            records = _Reordered(records, order)
            starts, ends = starts[order], ends[order]
            if terms is not None:
                terms = (terms[0], terms[1][order], terms[2][order])
        return _map_task, (records, self.fresh(spec.mapper), starts, ends, terms, order)

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

    def collect(self, outcomes: Sequence["_TaskOutcome"]) -> ColumnarPairs:
        """The job's intermediate pairs, in task order."""
        pairs = ColumnarPairs(self.codec)
        for index, ((spec, records), outcome) in enumerate(
            zip(self.inputs, outcomes)
        ):
            self.store.add_segment(
                index, records, spec.mapper, _source(spec, records)
            )
            pairs.append_block(outcome.result, index, *self.columns[index])
        return pairs


class _Reordered(SequenceABC):
    """``records`` read through a permutation: item ``i`` is
    ``records[order[i]]``.  Lazy, since only a router that reads its
    records (a flag, a keep rule) looks at them — and a column-form mark
    (``routing.RowMarks``) reads ``order`` alone."""

    __slots__ = ("records", "order")

    def __init__(self, records: Sequence[Any], order: np.ndarray) -> None:
        self.records, self.order = records, order

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index: int) -> Any:
        return self.records[self.order[index]]

    def __iter__(self) -> Iterator[Any]:
        return map(self.records.__getitem__, self.order.tolist())


def _source(spec: Any, records: Sequence[Any]) -> Any:
    """An input's source: the input itself where it is a block, else its
    spec's relation (or ``None``)."""
    return records if isinstance(records, IndexBlock) else spec.source


def _job_key_kind(conf: JobConf) -> str:
    """The key kind the job's mappers share.  A job is refused before it
    maps unless its reducer is a :class:`KernelReducer` and every input's
    mapper a :class:`Mapper` of one key kind."""
    if not isinstance(conf.reducer, KernelReducer):
        raise MapReduceError(
            f"job {conf.name!r}: the reducer {type(conf.reducer).__name__} "
            "is not a KernelReducer"
        )
    first = conf.inputs[0]
    want = getattr(first.mapper, "columnar_key_kind", None)
    for spec in conf.inputs:
        kind = getattr(spec.mapper, "columnar_key_kind", None)
        if not isinstance(spec.mapper, Mapper):
            problem = f"is a {type(spec.mapper).__name__}, not a Mapper"
        elif kind != want:
            problem = f"keys by {kind!r}, input {first.path!r} by {want!r}"
        else:
            continue
        raise MapReduceError(f"job {conf.name!r}: the mapper of input {spec.path!r} {problem}")
    return want


def _map_tasks_for(run: _JobRun) -> _MapTasks:
    """The job's map tasks over its materialised inputs, with each
    input's encoded columns — its ``source`` relation's own, if it names
    one, or the input itself read back as one block — and the order its
    mapper maps it in."""
    inputs = []
    for spec in run.conf.inputs:
        records = run.fs.read_dir(spec.path)
        if not isinstance(records, SequenceABC):  # a stored sequence is not copied
            records = list(records)
        if isinstance(spec.source, Mapping) and not isinstance(records, IndexBlock):
            if records:
                raise MapReduceError(f"input {spec.path!r} is not a block of its relations")
            # a derived input whose every file is empty
            records = IndexBlock.empty(spec.source)
        inputs.append((spec, records))
    for spec, records in inputs:
        source = _source(spec, records)
        if source is not None and len(source) != len(records):
            raise MapReduceError(
                f"input {spec.path!r} holds {len(records)} records, its "
                f"source relation {len(spec.source)} rows"
            )
    columns = [
        (
            *spec.mapper.encode_intervals(records, _source(spec, records)),
            spec.mapper.encode_terms(records, _source(spec, records)),
        )
        for spec, records in inputs
    ]
    orders = [
        spec.mapper.start_order(records, _source(spec, records))
        for spec, records in inputs
    ]
    return _MapTasks(run, inputs, columns, orders, KEY_CODECS[run.key_kind])


class _ReduceTasks(_Tasks):
    """Reduce tasks: one per shuffled partition.

    Every attempt stages its output through the file system's commit
    protocol (``_temporary/task-NNNNN/attempt-K``); a failed attempt's
    file is discarded, and ``run_job`` promotes each winner to
    its ``part-*`` file when gathering results — or, when the phase
    fails, aborts the job so that nothing stays staged.  The groups are
    :class:`ColumnValues` slices, the body runs the reducer's kernel,
    and :meth:`received` formats each task's block once through the
    job's payload ``store`` — the only place a job's outputs are
    materialised.
    """

    phase = "reduce"

    def __init__(
        self, run: _JobRun, tasks: Sequence[Any], store: PayloadStore
    ) -> None:
        super().__init__(run, len(tasks))
        self.tasks = tasks
        self.store = store

    def span_name(self, index: int) -> str:
        return f"reduce[{index}]"

    def body(self, index: int) -> Tuple[Callable[..., Any], Tuple]:
        return _reduce_task_core, (self.fresh(self.run.conf.reducer), self.tasks[index])

    def received(self, result: Any) -> Any:
        return self.run.conf.reducer.format(result, self.store)

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
    """Reduce tasks under ``processes``, the one phase whose attempt
    bodies run on the worker pool.

    Each task's group columns travel in one shared-memory block that the
    parent packs once — every attempt of the task, retries included,
    attaches the same block through its small picklable
    descriptor — and :meth:`close` unlinks, so the pickled payload
    shrinks to the reducer plus the descriptor.  A worker sends back its
    task's gid block as one int64 array, which :meth:`received` formats
    before staging and recording — so the committed records and the
    recorded task facts are exactly the other executors'.
    """

    pooled = True

    def __init__(
        self, run: _JobRun, tasks: Sequence[Any], store: PayloadStore
    ) -> None:
        super().__init__(run, tasks, store)
        self.packed: List[Tuple[Any, Any]] = []
        try:
            for groups in tasks:
                self.packed.append(pack_reduce_task(groups))
        except BaseException:
            self.close()
            raise

    def body(self, index: int) -> Tuple[Callable[..., Any], Tuple]:
        return _shm_reduce_task, (self.run.conf.reducer, self.packed[index][0])

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
    of the attempts that lost) and which attempt number won."""

    result: Any
    counters: Counters
    attempt: int


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
    ) -> Tuple[Any, Counters, Optional[float]]:
        """Run the task body; returns ``(result, counters, seconds)``,
        ``seconds`` being what a pool worker measured (``None`` for an
        in-process body, whose span measures it)."""
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
        result, task_counters = body(*args, faults)
        return tasks.received(result), task_counters, None

    def close(
        self,
        kind: str,
        body_seconds: Optional[float] = None,
        counters: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> None:
        """Record the finished attempt: ``kind="task"`` for the winner,
        ``"attempt"`` for a failed one.  The span lasts the wall time
        since the attempt began, except a pooled winner, whose start is
        backdated so that it lasts the ``body_seconds`` its worker
        measured."""
        span = self.span
        span.kind = kind
        if counters:
            span.counters = counters
        span.annotate(**self.attrs)
        if body_seconds is not None:
            backdate = body_seconds - (time.perf_counter() - self.started)
            span.start = max(0.0, span.start - backdate)
        self.run.recorder.end_span(span)


def _run_task_attempts(
    run: _JobRun, tasks: _Tasks, index: int, parent: Any
) -> _TaskOutcome:
    """Run one task to success within its retry budget.

    Each attempt walks Hadoop's lifecycle: injected ``setup`` crashes,
    the task body, output staging, then the commit-point checks (a
    ``corrupt-output`` event discards the staged output and fails the
    attempt).  A failed attempt is re-run at once; its counters are
    discarded — only the winner's merge into the job, which
    is what keeps chaos-run totals bit-identical to fault-free runs —
    and the failure is recorded as a ``kind="attempt"`` span.  The
    winner gets the ``kind="task"`` span, annotated with its ``attempt``
    number.  Once the budget is spent the *original* exception
    propagates.
    """
    fctx = run.options.faults
    job, phase = run.conf.name, tasks.phase
    fault_counters = Counters()
    for number in range(fctx.max_attempts):
        injector = AttemptInjector(fctx.events_for(job, phase, index, number))
        attempt = _Attempt(run, tasks, index, parent, attempt=number)
        staged = False
        try:
            injector.check("setup")
            result, task_counters, elapsed = attempt.run_body(injector)
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
        attrs, view = tasks.winner(index, task_counters, result)
        attempt.attrs.update(attrs)
        attempt.close("task", elapsed, view)
        task_counters.merge(fault_counters)
        return _TaskOutcome(result, task_counters, number)
    raise MapReduceError(  # pragma: no cover - loop always returns/raises
        f"task {index} of job {job!r} exhausted its attempt budget"
    )


def _run_tasks(run: _JobRun, tasks: _Tasks, parent: Any) -> List[_TaskOutcome]:
    """Run every task of one phase through the attempt loop.  The serial
    executor drives the loops inline; the parallel executors drive one
    loop per task on parent-side driver threads.  Outcomes come back in
    task order either way, so what the caller merges is
    executor-independent."""
    try:
        if run.inline:
            return [
                _run_task_attempts(run, tasks, index, parent)
                for index in range(tasks.count)
            ]
        with ThreadPoolExecutor(max_workers=run.options.workers) as pool:
            futures = [
                pool.submit(_run_task_attempts, run, tasks, index, parent)
                for index in range(tasks.count)
            ]
            return [future.result() for future in futures]
    finally:
        tasks.close()


# ----------------------------------------------------------------------
# The two halves of a job, split at the shuffle.
# ----------------------------------------------------------------------

@dataclass
class _Shuffled:
    """A job between its shuffle and its reduce."""

    #: the map tasks' merged counters, plus ``shuffle_records``.
    counters: Counters
    #: per reduce task, its ``(key, values)`` groups in key order.
    tasks: List[List[Tuple[Hashable, Any]]]
    #: the job's payload store, which resolves the groups' gids.
    store: PayloadStore
    #: records received per intermediate key.
    logical_loads: Dict[Hashable, int]


def _map_and_shuffle(run: _JobRun) -> _Shuffled:
    """The map phase, then the shuffle."""
    recorder, conf = run.recorder, run.conf
    with recorder.span(
        "map", kind="phase", job=conf.name, tasks=len(conf.inputs)
    ) as map_span:
        map_tasks = _map_tasks_for(run)
        store = map_tasks.store
        map_outcomes = _run_tasks(run, map_tasks, map_span)
        pairs = map_tasks.collect(map_outcomes)
    counters = Counters()
    for outcome in map_outcomes:
        counters.merge(outcome.counters)
    # Inputs and per-task blocks are dead weight from here on.
    del map_tasks, map_outcomes
    counters.increment("framework", "shuffle_records", len(pairs))

    # The shuffle phase is the sort of the key codes and of the
    # distinct keys; the per-key loads are read off the same sort.
    with recorder.span(
        "shuffle", kind="phase", job=conf.name, tasks=1,
        records=len(pairs), reduce_tasks=conf.num_reduce_tasks,
    ) as shuffle_span:
        tasks = columnar_shuffle(
            pairs, conf.num_reduce_tasks, conf.partitioner, store=store,
        )
        logical_loads = pairs.logical_loads()
        shuffle_span.annotate(keys=len(logical_loads))
        cost_model = run.cost_model
        if cost_model is not None:
            shuffle_span.annotate(
                modelled_seconds=len(pairs)
                * cost_model.shuffle_cost
                / cost_model.parallelism
            )
    return _Shuffled(counters, tasks, store, logical_loads)


def _reduce_and_commit(run: _JobRun, shuffled: _Shuffled) -> JobResult:
    """The reduce phase and the commit of its ``part-*`` files (or the
    job's abort); returns the job's measurements."""
    fs, conf, tasks = run.fs, run.conf, shuffled.tasks
    counters = Counters()
    counters.merge(shuffled.counters)
    reduce_task_loads = [
        sum(len(values) for _, values in groups) for groups in tasks
    ]
    try:
        with run.recorder.span(
            "reduce", kind="phase", job=conf.name, tasks=len(tasks)
        ) as reduce_span:
            if run.options.executor == "processes":
                reduce_tasks = _ShmReduceTasks(run, tasks, shuffled.store)
                reduce_span.annotate(
                    shm_bytes=sum(d.nbytes for d, _ in reduce_tasks.packed)
                )
            else:
                reduce_tasks = _ReduceTasks(run, tasks, shuffled.store)
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
    return JobResult(
        name=conf.name,
        counters=counters,
        reduce_task_loads=reduce_task_loads,
        logical_reducer_loads=shuffled.logical_loads,
        output=conf.output,
        output_records=sum(task_outputs),
        reduce_task_outputs=task_outputs,
        reduce_task_comparisons=[
            outcome.counters.value("work", "comparisons")
            for outcome in reduce_outcomes
        ],
    )


def run_job(
    fs: InMemoryFileSystem,
    conf: JobConf,
    executor: Optional[str] = None,
    observer: Optional["Observer"] = None,
    cost_model: Optional["CostModel"] = None,
    workers: Optional[int] = None,
    faults: Any = None,
    max_attempts: Optional[int] = None,
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
    executor, workers, faults, max_attempts:
        The four run options as keywords, each ``None`` deferring to its
        ``$REPRO_*`` variable and then the default; resolved here by
        :func:`repro.mapreduce.options.resolve_options`, which documents
        them.  None of them changes outputs or counters.
    options:
        Already-resolved :class:`~repro.mapreduce.options.RunOptions`
        (what :class:`~repro.mapreduce.pipeline.Pipeline` passes).  When
        given, the four keywords are not consulted.

    A job whose reducer is not a
    :class:`~repro.mapreduce.task.KernelReducer`, or whose inputs'
    mappers are not :class:`~repro.mapreduce.task.Mapper` s of one key
    kind, is refused with :class:`MapReduceError` before any span opens
    (:func:`_job_key_kind`).
    """
    if options is None:
        options = resolve_options(executor, workers, faults, max_attempts)
    if conf.num_reduce_tasks < 1:
        raise MapReduceError("a job needs at least one reduce task")
    if not conf.inputs:
        raise MapReduceError(f"job {conf.name!r} has no inputs")
    recorder = observer if observer is not None else NullRecorder()
    run = _JobRun(fs, conf, options, recorder, cost_model)

    job_span = recorder.start_span(
        f"job:{conf.name}",
        kind="job",
        job=conf.name,
        executor=options.executor,
        num_reduce_tasks=conf.num_reduce_tasks,
        max_attempts=options.faults.max_attempts,
    )
    try:
        result = _reduce_and_commit(run, _map_and_shuffle(run))
        loads = result.logical_reducer_loads
        job_span.counters = result.counters.snapshot()
        job_span.annotate(
            output_records=result.output_records,
            shuffled_records=result.shuffled_records,
            reduce_task_loads=list(result.reduce_task_loads),
            # Hottest first, ties by repr(key): what a run report names.
            key_loads=sorted(
                ((repr(key), load) for key, load in loads.items()),
                key=lambda item: (-item[1], item[0]),
            ),
            promoted=len(result.reduce_task_outputs),
        )
        if cost_model is not None:
            job_span.annotate(modelled_seconds=cost_model.job_time(result))
        recorder.record_job(result)
        return result
    finally:
        recorder.end_span(job_span)
