"""The outside-in layer table: per-layer metrics and how they are taken.

Two sources feed it, both driven from the harness and neither needing a
change inside ``src/``:

* **probes** — the harness calls each layer's *public* functions on the
  workload's own rows, pairs and tuples, and times the call with its own
  span recorder (:class:`SpanLog`).  A probe isolates a layer: it says
  what the layer costs on this data, not what share of a query it is.
* **the in-situ split** — one query rerun under the engine's
  ``TraceRecorder``; its job / phase / task spans give the share of the
  query each runner phase took (:func:`runner_metrics`).

Layer names are module names.  ``LAYER_METRICS`` is the table
``harness.py --list`` prints and ``BENCHMARK.json`` mirrors; each entry
says which end-to-end metric it is expected to move, on which workload.
A metric that does not apply to a workload (``mapper.*`` off the 2-way
workloads, ``runner.pool_start_s`` on a serial one, an arm whose knob is
gone) reads 0.
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from workloads import NUM_PARTITIONS, Metric, Workload

#: Every job name the four workloads' algorithms run, so that
#: ``runner.job_s.<job>`` is one fixed set of metric names.
JOB_NAMES = (
    "pasm-flag", "pasm-mark", "pasm-join",
    "rccis-flag", "rccis-join",
    "two-way",
)


def _m(name: str, unit: str, better: str, moves: str) -> Metric:
    return Metric(name, unit, better, help=moves)


LAYER_METRICS: Tuple[Metric, ...] = (
    # -- io: JSONL relation files -------------------------------------
    _m("io.load_rows_per_s", "1/s", "higher", "setup_s only, all workloads"),
    _m("io.save_rows_per_s", "1/s", "higher", "setup_s only, all workloads"),
    # -- fs: staging inputs, committing output ------------------------
    _m("fs.stage_inputs_s", "s", "lower",
       "query_wall_s, all workloads (small)"),
    _m("fs.commit_s", "s", "lower",
       "query_wall_s on hybrid3_pasm (largest output); ~0 on twoway_*"),
    _m("fs.commit_records", "count", "lower", "work count behind fs.commit_s"),
    _m("fs.two_phase_commit_s", "s", "lower",
       "query_wall_s on hybrid3_pasm; ~0 on twoway_*"),
    # -- partitioning: project / split / replicate --------------------
    _m("partitioning.scalar_ops_per_s", "1/s", "higher",
       "query_wall_s on twoway_sparse (map phase)"),
    _m("partitioning.locate_array_s", "s", "lower",
       "nothing on the default plane; arm.columnar.query_wall_s"),
    # -- mapper: OperatorMapper over every row (2-way only) -----------
    _m("mapper.map_s", "s", "lower",
       "query_wall_s on twoway_sparse; no effect on hybrid3_pasm"),
    _m("mapper.pairs_out", "count", "lower",
       "shuffled_records on twoway_sparse"),
    _m("mapper.pairs_per_input_row", "ratio", "lower",
       "shuffled_records on twoway_sparse (replication rate)"),
    # -- columnar: the optional struct-of-arrays plane ----------------
    _m("columnar.encode_s", "s", "lower",
       "nothing on the default plane; arm.columnar.query_wall_s"),
    _m("columnar.map_columns_s", "s", "lower",
       "nothing on the default plane; arm.columnar.query_wall_s"),
    _m("columnar.compact_codes_s", "s", "lower",
       "nothing on the default plane; arm.columnar.query_wall_s"),
    _m("columnar.shuffle_s", "s", "lower",
       "nothing on the default plane; arm.columnar.query_wall_s"),
    _m("columnar.shm_pack_s", "s", "lower",
       "nothing on the default plane; columnar arm of twoway_sparse_procs"),
    _m("columnar.shm_unpack_s", "s", "lower",
       "nothing on the default plane; columnar arm of twoway_sparse_procs"),
    _m("columnar.shm_bytes", "B", "lower",
       "bytes shipped through shared memory instead of pickle"),
    # -- shuffle: group by key, route to reduce tasks -----------------
    _m("shuffle.shuffle_s", "s", "lower",
       "predicted NO visible move of query_wall_s anywhere (<1% share)"),
    _m("shuffle.pairs_in", "count", "lower", "work count behind shuffle_s"),
    _m("shuffle.groups_out", "count", "lower", "distinct keys routed"),
    _m("shuffle.task_load_max_over_mean", "ratio", "lower",
       "max_reducer_load (skew of the routing itself)"),
    # -- transport: pickling reduce tasks across processes ------------
    _m("transport.pickle_dumps_s", "s", "lower",
       "query_wall_s on twoway_sparse_procs; must not move twoway_sparse"),
    _m("transport.pickle_loads_s", "s", "lower",
       "query_wall_s on twoway_sparse_procs; must not move twoway_sparse"),
    _m("transport.pickle_bytes", "B", "lower",
       "bytes behind the two pickle timings"),
    # -- local: the reducer-local join kernel on whole relations ------
    _m("local.join_all_s", "s", "lower",
       "query_wall_s on hybrid3_pasm and coloc3_rccis"),
    _m("local.tuples_per_s", "1/s", "higher",
       "output_tuples_per_s on hybrid3_pasm and coloc3_rccis"),
    _m("local.comparisons", "count", "lower",
       "modelled_cluster_s (the count the cost model charges)"),
    _m("local.comparisons_per_tuple", "ratio", "lower",
       "wasted probes per produced tuple"),
    # -- sweep / tree: the two access paths under local ---------------
    _m("sweep.join_pairs_s", "s", "lower",
       "query_wall_s on twoway_*; not hybrid3_pasm/coloc3_rccis"),
    _m("sweep.pairs_out", "count", "lower", "work count behind join_pairs_s"),
    _m("tree.build_s", "s", "lower",
       "query_wall_s on hybrid3_pasm/coloc3_rccis; not twoway_*"),
    _m("tree.probe_s", "s", "lower",
       "query_wall_s on hybrid3_pasm/coloc3_rccis; not twoway_*"),
    _m("tree.probes", "count", "lower", "work count behind tree.probe_s"),
    # -- runner: the in-situ split of one traced query ----------------
    _m("runner.map_phase_s", "s", "lower", "query_wall_s (map share)"),
    _m("runner.shuffle_phase_s", "s", "lower", "query_wall_s (shuffle share)"),
    _m("runner.reduce_phase_s", "s", "lower", "query_wall_s (reduce share)"),
    _m("runner.job_self_s", "s", "lower",
       "query_wall_s on twoway_sparse: job time outside its phases "
       "(load counting, commit, metrics)"),
    _m("runner.algorithm_self_s", "s", "lower",
       "query_wall_s: algorithm time outside its jobs (staging inputs, "
       "reading output back)"),
    *(
        _m(f"runner.job_s.{job}", "s", "lower",
           f"query_wall_s of the workload that runs {job}")
        for job in JOB_NAMES
    ),
    _m("runner.reduce_task_max_over_mean_s", "ratio", "lower",
       "query_wall_s on twoway_sparse_procs (the slowest task sets the "
       "parallel phase)"),
    _m("runner.reduce_amplification", "ratio", "lower",
       "reduce_phase_s / local.join_all_s: work the grid adds over the "
       "bare kernel"),
    _m("runner.pool_start_s", "s", "lower",
       "setup_s on twoway_sparse_procs"),
    _m("runner.worker_peak_rss_mb", "MB", "lower",
       "memory of twoway_sparse_procs (peak_rss_mb is the driver only)"),
    # -- obs: what observing costs ------------------------------------
    _m("obs.traced_wall_s", "s", "lower", "no untraced metric"),
    _m("obs.traced_overhead_frac", "frac", "lower",
       "no untraced metric; phase seconds above include it"),
    _m("obs.spans_recorded", "count", "lower", "no untraced metric"),
    # -- expected negligible; listed so growth shows ------------------
    _m("planner.plan_s", "s", "lower", "query_wall_s (negligible)"),
    _m("predict.profile_data_s", "s", "lower", "traced runs only"),
    _m("predict.predict_s", "s", "lower", "traced runs only"),
    _m("validation.validate_s", "s", "lower", "benchmark's own checking"),
    # -- arms: the same query with one knob flipped; never gated ------
    _m("arm.columnar.query_wall_s", "s", "lower",
       "informational; 0 when every job fell back (it would re-time the "
       "default plane)"),
    _m("arm.columnar.fell_back", "frac", "lower",
       "share of the arm's jobs that ran on the records plane anyway"),
    _m("arm.threads.query_wall_s", "s", "lower", "informational"),
    # -- noise: the run's own spread ----------------------------------
    _m("noise.query_wall_iqr_frac", "frac", "lower",
       "compare.py widens every bound to 2x this"),
    _m("noise.query_wall_min_s", "s", "lower", "spread of the untraced loop"),
    _m("noise.query_wall_max_s", "s", "lower", "spread of the untraced loop"),
    _m("noise.samples", "count", "higher", "untraced queries behind noise.*"),
    _m("noise.kernel_s", "s", "lower",
       "median seconds of the calibration kernel (calibrate.py) in this run"),
    _m("noise.host_factor", "ratio", "lower",
       "kernel_s / nominal: every end-to-end time is divided by this; "
       "per-layer seconds are raw"),
)


# ----------------------------------------------------------------------
# The harness's own span recorder.
# ----------------------------------------------------------------------

class Span:
    """One timed call: name, start, end, parent, workload id."""

    __slots__ = ("span_id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 start: float, attrs: Dict[str, Any]) -> None:
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans kept in memory, written out once when the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans) + 1, name, parent,
                    time.perf_counter() - self._epoch, attrs)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter() - self._epoch
            self._open.pop()

    def adopt(self, recorder, parent: Span) -> None:
        """Copy the engine's own spans of one traced query under
        ``parent``, so spans.jsonl holds one tree."""
        offset = parent.start
        ids: Dict[int, int] = {}
        for span in sorted(recorder.spans, key=lambda s: s.span_id):
            copy = Span(
                len(self.spans) + 1,
                f"repro.{span.kind}:{span.name}",
                ids.get(span.parent_id, parent.span_id),
                offset + span.start,
                {k: v for k, v in span.attributes.items()
                 if isinstance(v, (int, float, str, bool))},
            )
            copy.end = offset + (span.end if span.end is not None else span.start)
            ids[span.span_id] = copy.span_id
            self.spans.append(copy)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id,
                    "parent": span.parent,
                    "workload": self.workload,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "attrs": span.attrs,
                }))
                handle.write("\n")


# ----------------------------------------------------------------------
# Probes: calls into each layer's public functions.
# ----------------------------------------------------------------------

def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def probe_layers(
    workload: Workload, query, data, result, scratch_dir: str, log: SpanLog
) -> Dict[str, float]:
    """Every probe metric of :data:`LAYER_METRICS` for one workload.

    ``result`` is a full ``JoinResult`` of the workload's query (its
    tuples are what the commit probes write); ``scratch_dir`` receives
    the JSONL files of the io probe.
    """
    import numpy as np

    from repro import ALGORITHMS
    from repro.columnar import (
        KEY_CODECS,
        ColumnarPairs,
        MapBlock,
        operator_map_columns,
    )
    from repro.columnar.shm import pack_reduce_task, unpack_reduce_task
    from repro.core.algorithms.base import (
        build_partitioning,
        input_path,
        write_inputs,
    )
    from repro.core.algorithms.two_way import OperatorMapper
    from repro.core.local import LocalJoiner
    from repro.core.planner import plan
    from repro.core.tuning import PredictConfig, profile_data
    from repro.intervals.allen import MapOperator
    from repro.intervals.sweep import join_pairs
    from repro.intervals.tree import IntervalTree
    from repro.io import load_relation, save_relation
    from repro.mapreduce import (
        Counters,
        InMemoryFileSystem,
        MapContext,
        RoundRobinKeyPartitioner,
    )
    from repro.mapreduce.shuffle import columnar_shuffle, shuffle

    out: Dict[str, float] = {}
    relations = query.relations
    total_rows = sum(len(data[name]) for name in relations)
    attribute = {name: query.attributes_of(name)[0] for name in relations}

    # -- io ------------------------------------------------------------
    paths = {name: f"{scratch_dir}/probe-{name}.jsonl" for name in relations}
    with log.span("io.save_relation", rows=total_rows) as span:
        for name in relations:
            save_relation(data[name], paths[name])
    out["io.save_rows_per_s"] = _rate(total_rows, span.duration)
    with log.span("io.load_relation", rows=total_rows) as span:
        for name in relations:
            load_relation(paths[name], name)
    out["io.load_rows_per_s"] = _rate(total_rows, span.duration)

    # -- fs ------------------------------------------------------------
    fs = InMemoryFileSystem()
    with log.span("fs.write_inputs", rows=total_rows) as span:
        write_inputs(fs, query, data)
    out["fs.stage_inputs_s"] = span.duration
    tuples = result.tuples
    chunk = -(-len(tuples) // NUM_PARTITIONS) or 1
    chunks = [tuples[i * chunk:(i + 1) * chunk] for i in range(NUM_PARTITIONS)]
    with log.span("fs.append_partition+read_dir", records=len(tuples)) as span:
        for index, records in enumerate(chunks):
            fs.append_partition("probe/commit", index, records)
        committed = sum(1 for _ in fs.read_dir("probe/commit"))
    out["fs.commit_s"] = span.duration
    out["fs.commit_records"] = float(committed)
    with log.span("fs.write_attempt+promote_attempt", records=len(tuples)) as span:
        for index, records in enumerate(chunks):
            fs.write_attempt("probe/two-phase", index, 0, records)
            fs.promote_attempt("probe/two-phase", index, 0)
    out["fs.two_phase_commit_s"] = span.duration
    del fs, chunks

    # -- partitioning --------------------------------------------------
    parts = build_partitioning(query, data, NUM_PARTITIONS)
    intervals = [
        row.interval(attribute[name])
        for name in relations
        for row in data[name].rows
    ]
    with log.span("partitioning.project+split+replicate",
                  ops=3 * len(intervals)) as span:
        for interval in intervals:
            parts.project(interval)
            len(parts.split(interval))
            len(parts.replicate(interval))
    out["partitioning.scalar_ops_per_s"] = _rate(3 * len(intervals), span.duration)
    starts = np.fromiter((iv.start for iv in intervals), dtype=np.float64,
                         count=len(intervals))
    with log.span("partitioning.locate_array", points=len(starts)) as span:
        parts.locate_array(starts)
    out["partitioning.locate_array_s"] = span.duration

    # -- mapper (2-way only) and the mappers the columnar probes use ---
    if workload.algorithm == "two_way":
        condition = query.conditions[0]
        operators = {
            condition.left.relation: condition.predicate.left_operator,
            condition.right.relation: condition.predicate.right_operator,
        }
    else:
        operators = {name: MapOperator.PROJECT for name in relations}
    mappers = {
        name: OperatorMapper(name, attribute[name], parts, operators[name])
        for name in relations
    }
    if workload.algorithm == "two_way":
        emitted = 0
        with log.span("mapper.OperatorMapper.map", rows=total_rows) as span:
            for name in relations:
                context = MapContext(Counters(), input_path(name))
                mapper = mappers[name]
                for row in data[name].rows:
                    mapper.map(row, context)
                emitted += len(context.drain())
        out["mapper.map_s"] = span.duration
        out["mapper.pairs_out"] = float(emitted)
        out["mapper.pairs_per_input_row"] = emitted / total_rows
    else:
        out["mapper.map_s"] = 0.0
        out["mapper.pairs_out"] = 0.0
        out["mapper.pairs_per_input_row"] = 0.0

    # -- columnar ------------------------------------------------------
    codec = KEY_CODECS["int"]
    with log.span("columnar.encode_intervals", rows=total_rows) as span:
        columns = {
            name: mappers[name].encode_intervals(data[name].rows)
            for name in relations
        }
    out["columnar.encode_s"] = span.duration
    with log.span("columnar.operator_map_columns", rows=total_rows) as span:
        mapped = {
            name: operator_map_columns(parts, operators[name], *columns[name])
            for name in relations
        }
    out["columnar.map_columns_s"] = span.duration
    pairs = ColumnarPairs(codec)
    for segment, name in enumerate(relations):
        key_codes, row_idx, counters = mapped[name]
        pairs.append_block(
            MapBlock.single_tag(key_codes, row_idx, name, counters),
            segment, *columns[name],
        )
    key_codes = pairs.columns()[0]
    with log.span("columnar.compact_codes", pairs=len(key_codes)) as span:
        codec.compact_codes(key_codes)
    out["columnar.compact_codes_s"] = span.duration
    with log.span("columnar.columnar_shuffle", pairs=len(key_codes)) as span:
        column_tasks = columnar_shuffle(
            pairs, NUM_PARTITIONS, RoundRobinKeyPartitioner()
        )
    out["columnar.shuffle_s"] = span.duration
    blocks = []
    try:
        with log.span("columnar.pack_reduce_task") as span:
            for groups in column_tasks:
                blocks.append(pack_reduce_task(groups))
        out["columnar.shm_pack_s"] = span.duration
        with log.span("columnar.unpack_reduce_task") as span:
            for descriptor, _ in blocks:
                groups, attached = unpack_reduce_task(descriptor)
                del groups
                if attached is not None:
                    attached.close()
        out["columnar.shm_unpack_s"] = span.duration
        out["columnar.shm_bytes"] = float(sum(d.nbytes for d, _ in blocks))
    finally:
        for _, block in blocks:
            if block is not None:
                block.close()
                block.unlink()
    del pairs, column_tasks, mapped, columns

    # -- shuffle -------------------------------------------------------
    projected = [
        (parts.project(row.interval(attribute[name])), (name, row))
        for name in relations
        for row in data[name].rows
    ]
    with log.span("shuffle.shuffle", pairs=len(projected)) as span:
        tasks = shuffle(projected, NUM_PARTITIONS, RoundRobinKeyPartitioner())
    out["shuffle.shuffle_s"] = span.duration
    out["shuffle.pairs_in"] = float(len(projected))
    out["shuffle.groups_out"] = float(sum(len(groups) for groups in tasks))
    loads = [sum(len(values) for _, values in groups) for groups in tasks]
    out["shuffle.task_load_max_over_mean"] = _rate(max(loads), statistics.fmean(loads))

    # -- transport -----------------------------------------------------
    with log.span("transport.pickle.dumps", tasks=len(tasks)) as span:
        blobs = [
            pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
            for task in tasks
        ]
    out["transport.pickle_dumps_s"] = span.duration
    out["transport.pickle_bytes"] = float(sum(len(blob) for blob in blobs))
    with log.span("transport.pickle.loads", tasks=len(tasks)) as span:
        for blob in blobs:
            pickle.loads(blob)
    out["transport.pickle_loads_s"] = span.duration
    del projected, tasks, blobs

    # -- local ---------------------------------------------------------
    comparisons = [0]

    def count(n: int) -> None:
        comparisons[0] += n

    rows_by_relation = {name: data[name].rows for name in relations}
    with log.span("local.LocalJoiner.join", rows=total_rows) as span:
        joined = sum(1 for _ in LocalJoiner(query, count).join(rows_by_relation))
    out["local.join_all_s"] = span.duration
    out["local.tuples_per_s"] = _rate(joined, span.duration)
    out["local.comparisons"] = float(comparisons[0])
    out["local.comparisons_per_tuple"] = _rate(comparisons[0], joined)
    if joined != len(result):
        raise AssertionError(
            f"single-node LocalJoiner produced {joined} tuples, "
            f"the query {len(result)}"
        )

    # -- sweep / tree --------------------------------------------------
    first = query.conditions[0]
    left_items = [
        (row.interval(first.left.attribute), row)
        for row in data[first.left.relation].rows
    ]
    right_items = [
        (row.interval(first.right.attribute), row)
        for row in data[first.right.relation].rows
    ]
    with log.span("sweep.join_pairs", predicate=first.predicate.name) as span:
        swept = sum(1 for _ in join_pairs(left_items, right_items, first.predicate))
    out["sweep.join_pairs_s"] = span.duration
    out["sweep.pairs_out"] = float(swept)
    with log.span("tree.IntervalTree", items=len(right_items)) as span:
        tree = IntervalTree(right_items)
    out["tree.build_s"] = span.duration
    with log.span("tree.overlapping", probes=len(left_items)) as span:
        for interval, _ in left_items:
            for _ in tree.overlapping(interval):
                pass
    out["tree.probe_s"] = span.duration
    out["tree.probes"] = float(len(left_items))
    del tree, left_items, right_items

    # -- planner / predict (validation.validate_s is the harness's own
    # validate_result call on the run's first result) ------------------
    with log.span("planner.plan") as span:
        plan(query, prune=True)
    out["planner.plan_s"] = span.duration
    with log.span("predict.profile_data") as span:
        profile = profile_data(query, data)
    out["predict.profile_data_s"] = span.duration
    with log.span("predict.predict") as span:
        ALGORITHMS[workload.algorithm]().predict(
            query, profile, PredictConfig(num_partitions=NUM_PARTITIONS)
        )
    out["predict.predict_s"] = span.duration
    return out


# ----------------------------------------------------------------------
# The in-situ split, read from the engine's own spans.
# ----------------------------------------------------------------------

def runner_metrics(recorder) -> Dict[str, float]:
    """The ``runner.*`` phase metrics of one traced query.

    A span's self time is its duration minus what its children of the
    next level down cover: job - phases, algorithm - jobs.
    """
    out: Dict[str, float] = {f"runner.job_s.{job}": 0.0 for job in JOB_NAMES}
    phase_s = {"map": 0.0, "shuffle": 0.0, "reduce": 0.0}
    job_self = 0.0
    slowest_reduce = None
    for job in recorder.find(kind="job"):
        phases = [child for child in job.children if child.kind == "phase"]
        for phase in phases:
            phase_s[phase.name] += phase.duration
            if phase.name == "reduce" and (
                slowest_reduce is None
                or phase.duration > slowest_reduce.duration
            ):
                slowest_reduce = phase
        job_self += job.duration - sum(phase.duration for phase in phases)
        name = f"runner.job_s.{job.attributes.get('job')}"
        if name in out:
            out[name] += job.duration
    algorithm_self = 0.0
    for algorithm in recorder.find(kind="algorithm"):
        algorithm_self += algorithm.duration - sum(
            child.duration for child in algorithm.children
            if child.kind == "job"
        )
    out["runner.map_phase_s"] = phase_s["map"]
    out["runner.shuffle_phase_s"] = phase_s["shuffle"]
    out["runner.reduce_phase_s"] = phase_s["reduce"]
    out["runner.job_self_s"] = job_self
    out["runner.algorithm_self_s"] = algorithm_self
    task_s = [
        child.duration
        for child in (slowest_reduce.children if slowest_reduce else ())
        if child.kind == "task"
    ]
    out["runner.reduce_task_max_over_mean_s"] = (
        _rate(max(task_s), statistics.fmean(task_s)) if task_s else 0.0
    )
    out["obs.spans_recorded"] = float(len(recorder.spans))
    return out
