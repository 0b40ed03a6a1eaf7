"""The metrics registry — a fold over the span stream.

The :class:`MetricsRegistry` is the queryable side of the observability
layer: where :class:`~repro.obs.span.Span` records *when* something
happened, a metric records *how much* of it happened, keyed by a fixed
label set.  The spans are the record and the registry is a function of
them: :func:`fold_span` turns one closed span into samples of the
families declared in :data:`FAMILIES`, a recorder's registry is that
fold kept up to date as spans close (:class:`MetricsFold`), and
:func:`fold_spans` over a reloaded JSONL trace rebuilds the same
registry sample for sample.  Only the ``live`` group is written from
elsewhere (:mod:`repro.obs.live`, a fold of the same spans against the
wall clock).  Three metric types
cover every signal the simulator emits:

* :class:`Counter` — monotonically increasing totals (records mapped,
  tasks retried, bytes-ish shuffled).
* :class:`Gauge` — last-written values (replication factor of a job,
  consistent vs total reducers of a grid).
* :class:`Histogram` — distributions over **fixed bucket boundaries**
  (per-reducer loads, per-key skew, phase wall seconds).

Every metric belongs to a **group**:

* ``"run"`` (default) — deterministic facts of the computation; these
  must be bit-identical across the serial/threads/processes executors
  and invariant under fault injection (retries replay, they do not
  change the answer).
* ``"wall"`` — wall-clock timings; honest but machine-dependent.
* ``"faults"`` — chaos bookkeeping (retries, discarded attempts);
  identical across executors for a pinned fault plan but empty on a
  fault-free run.
* ``"profile"`` — data-plane profiling facts (CPU seconds, memory
  watermarks, shared-memory bytes; see :mod:`repro.obs.profile`).
  Machine- and executor-dependent by nature, so excluded from parity
  like ``wall``.

:meth:`MetricsRegistry.fingerprint` exposes exactly that contract: the
parity tests compare fingerprints with ``exclude_groups=("wall",
"profile")`` (the default) and add ``"faults"`` to compare a chaos run
against a fault-free one.

Worker *processes* never see the registry — they ship counter snapshots
back (see ``runner._process_attempt``), the parent puts them on the
task's span and the fold reads them there, so the merge is deterministic
by construction.  Only winning attempts close as ``kind="task"`` spans
and losing ones (``kind="attempt"``) touch nothing but the ``faults``
group, which is what makes the ``run`` group invariant under chaos.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ReproError
from repro.obs.sinks import TraceSink
from repro.obs.span import Span

__all__ = [
    "MetricError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "FAMILIES",
    "MetricsFold",
    "fold_span",
    "fold_spans",
    "GROUP_RUN",
    "GROUP_WALL",
    "GROUP_FAULTS",
    "GROUP_PROFILE",
    "GROUP_LIVE",
    "LOAD_BUCKETS",
    "SECONDS_BUCKETS",
]

#: Deterministic facts of the computation (executor-invariant).
GROUP_RUN = "run"
#: Wall-clock timings (machine-dependent, excluded from parity checks).
GROUP_WALL = "wall"
#: Fault-injection bookkeeping (empty on fault-free runs).
GROUP_FAULTS = "faults"
#: Data-plane profiling facts (machine-dependent, excluded from parity).
GROUP_PROFILE = "profile"
#: Live operational telemetry — running / finished task counts and
#: progress / ETA gauges.  Wall-clock-driven, so excluded from parity
#: fingerprints.
GROUP_LIVE = "live"

#: Fixed boundaries for tuple-load histograms (per-reducer and per-key).
LOAD_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 50000.0,
)

#: Fixed boundaries for wall-clock histograms, in seconds.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_VALID_GROUPS = (
    GROUP_RUN, GROUP_WALL, GROUP_FAULTS, GROUP_PROFILE, GROUP_LIVE
)


class MetricError(ReproError, ValueError):
    """Raised for metric misuse: type/label mismatches, bad buckets."""


def _check_labels(
    declared: Tuple[str, ...], provided: Mapping[str, Any], name: str
) -> Tuple[str, ...]:
    if set(provided) != set(declared):
        raise MetricError(
            f"metric {name!r} takes labels {list(declared)}, "
            f"got {sorted(provided)}"
        )
    return tuple(str(provided[label]) for label in declared)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_number(value: Any) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_pairs(
    names: Tuple[str, ...], values: Tuple[str, ...]
) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class Metric:
    """Base class: one named family of samples keyed by label values."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Tuple[str, ...],
        group: str,
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = labels
        self.group = group
        self._lock = lock
        self._samples: Dict[Tuple[str, ...], Any] = {}

    # -- introspection --------------------------------------------------
    def samples(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """``(label_values, value)`` pairs, sorted by label values."""
        with self._lock:
            return sorted(self._samples.items())

    def signature(self) -> Tuple[Any, ...]:
        return (self.kind, self.label_names, self.group)

    # -- serialisation hooks (overridden per type) ----------------------
    def _sample_dict(self, key: Tuple[str, ...], value: Any) -> Dict[str, Any]:
        return {"labels": list(key), "value": value}

    def _exposition_lines(self) -> List[str]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        key = _check_labels(self.label_names, labels, self.name)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        key = _check_labels(self.label_names, labels, self.name)
        with self._lock:
            return self._samples.get(key, 0)

    def _exposition_lines(self) -> List[str]:
        lines = []
        for key, value in self.samples():
            labels = _label_pairs(self.label_names, key)
            lines.append(f"{self.name}{labels} {_format_number(value)}")
        return lines


class Gauge(Metric):
    """A last-write-wins value."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _check_labels(self.label_names, labels, self.name)
        with self._lock:
            self._samples[key] = value

    def value(self, **labels: Any) -> Optional[float]:
        key = _check_labels(self.label_names, labels, self.name)
        with self._lock:
            return self._samples.get(key)

    def _exposition_lines(self) -> List[str]:
        lines = []
        for key, value in self.samples():
            labels = _label_pairs(self.label_names, key)
            lines.append(f"{self.name}{labels} {_format_number(value)}")
        return lines


class Histogram(Metric):
    """Cumulative-bucket distribution over fixed boundaries."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Tuple[str, ...],
        group: str,
        lock: threading.Lock,
        buckets: Tuple[float, ...],
    ) -> None:
        super().__init__(name, help_text, labels, group, lock)
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError(
                f"histogram {self.name!r} needs ascending bucket boundaries"
            )
        self.buckets = tuple(float(bound) for bound in buckets)

    def signature(self) -> Tuple[Any, ...]:
        return (self.kind, self.label_names, self.group, self.buckets)

    def observe(self, value: float, **labels: Any) -> None:
        key = _check_labels(self.label_names, labels, self.name)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._samples[key] = state
            index = bisect_left(self.buckets, value)
            state["counts"][index] += 1
            state["sum"] += value
            state["count"] += 1

    def state(self, **labels: Any) -> Optional[Dict[str, Any]]:
        key = _check_labels(self.label_names, labels, self.name)
        with self._lock:
            state = self._samples.get(key)
            return None if state is None else dict(state)

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Upper bucket boundary holding the q-quantile observation.

        An estimate by construction — the histogram only knows bucket
        membership — but with the load buckets above it is exact for
        small integer loads.  Returns ``None`` with no observations.
        """
        state = self.state(**labels)
        if state is None or state["count"] == 0:
            return None
        rank = max(1, int(q * state["count"] + 0.5))
        seen = 0
        for index, count in enumerate(state["counts"]):
            seen += count
            if seen >= rank:
                if index < len(self.buckets):
                    return self.buckets[index]
                return state["sum"] / state["count"] if state["count"] else 0.0
        return self.buckets[-1]

    def _sample_dict(self, key: Tuple[str, ...], value: Any) -> Dict[str, Any]:
        return {
            "labels": list(key),
            "counts": list(value["counts"]),
            "sum": value["sum"],
            "count": value["count"],
        }

    def _exposition_lines(self) -> List[str]:
        lines = []
        for key, state in self.samples():
            cumulative = 0
            for bound, count in zip(self.buckets, state["counts"]):
                cumulative += count
                names = self.label_names + ("le",)
                values = key + (_format_number(bound),)
                lines.append(
                    f"{self.name}_bucket{_label_pairs(names, values)} "
                    f"{cumulative}"
                )
            cumulative += state["counts"][-1]
            names = self.label_names + ("le",)
            values = key + ("+Inf",)
            lines.append(
                f"{self.name}_bucket{_label_pairs(names, values)} "
                f"{cumulative}"
            )
            labels = _label_pairs(self.label_names, key)
            lines.append(
                f"{self.name}_sum{labels} {_format_number(state['sum'])}"
            )
            lines.append(f"{self.name}_count{labels} {state['count']}")
        return lines


class MetricsRegistry:
    """Registers metric families and serialises them deterministically.

    Registration is idempotent: asking for an already-registered name
    with the *same* type/labels/group/buckets returns the existing
    metric; a mismatch raises :class:`MetricError`.  All samples update
    under one registry lock, so the ``threads`` executor can record
    concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    # -- registration ---------------------------------------------------
    def _register(self, metric: Metric) -> Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if existing.signature() != metric.signature():
                    raise MetricError(
                        f"metric {metric.name!r} already registered as "
                        f"{existing.signature()}, asked for "
                        f"{metric.signature()}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        group: str = GROUP_RUN,
    ) -> Counter:
        return self._register(  # type: ignore[return-value]
            Counter(name, help_text, tuple(labels), _valid_group(group),
                    self._lock)
        )

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        group: str = GROUP_RUN,
    ) -> Gauge:
        return self._register(  # type: ignore[return-value]
            Gauge(name, help_text, tuple(labels), _valid_group(group),
                  self._lock)
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        group: str = GROUP_RUN,
        buckets: Tuple[float, ...] = LOAD_BUCKETS,
    ) -> Histogram:
        return self._register(  # type: ignore[return-value]
            Histogram(name, help_text, tuple(labels), _valid_group(group),
                      self._lock, tuple(buckets))
        )

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def families(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # -- serialisation --------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot: ``{name: {type, help, group, ...}}``."""
        out: Dict[str, Any] = {}
        for metric in self.families():
            entry: Dict[str, Any] = {
                "type": metric.kind,
                "help": metric.help,
                "group": metric.group,
                "labels": list(metric.label_names),
                "samples": [
                    metric._sample_dict(key, value)
                    for key, value in metric.samples()
                ],
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[metric.name] = entry
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format, deterministic order."""
        lines: List[str] = []
        for metric in self.families():
            help_text = metric.help or metric.name
            lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric._exposition_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    # -- comparison -----------------------------------------------------
    def fingerprint(
        self,
        exclude_groups: Tuple[str, ...] = (
            GROUP_WALL, GROUP_PROFILE, GROUP_LIVE,
        ),
    ) -> Dict[str, Tuple[Any, ...]]:
        """A hashable, comparable digest of the sample values.

        The parity tests assert ``a.fingerprint(...) ==
        b.fingerprint(...)``; the default excludes the machine-dependent
        ``wall`` and ``profile`` groups so deterministic content compares
        across executors, and chaos tests add ``"faults"`` to compare a
        chaos run against a fault-free one.
        """
        digest: Dict[str, Tuple[Any, ...]] = {}
        for metric in self.families():
            if metric.group in exclude_groups:
                continue
            entries = []
            for key, value in metric.samples():
                if isinstance(metric, Histogram):
                    entries.append(
                        (key, tuple(value["counts"]), value["count"])
                    )
                else:
                    entries.append((key, value))
            digest[metric.name] = tuple(entries)
        return digest

    # -- human output ---------------------------------------------------
    def summary(self) -> str:
        """A compact human-readable rundown (what ``repro report`` prints)."""
        families = self.families()
        sample_total = sum(len(metric.samples()) for metric in families)
        lines = [
            f"metrics: {len(families)} families, {sample_total} samples"
        ]
        for metric in families:
            for key, value in metric.samples():
                labels = _label_pairs(metric.label_names, key)
                if isinstance(metric, Histogram):
                    if value["count"] == 0:
                        continue
                    p50 = metric.quantile(
                        0.5, **dict(zip(metric.label_names, key))
                    )
                    p95 = metric.quantile(
                        0.95, **dict(zip(metric.label_names, key))
                    )
                    lines.append(
                        f"  {metric.name}{labels} count={value['count']} "
                        f"sum={_format_number(value['sum'])} "
                        f"p50<={_format_number(p50)} "
                        f"p95<={_format_number(p95)}"
                    )
                else:
                    lines.append(
                        f"  {metric.name}{labels} {_format_number(value)}"
                    )
        return "\n".join(lines)


def _valid_group(group: str) -> str:
    if group not in _VALID_GROUPS:
        raise MetricError(
            f"unknown metric group {group!r}; use one of {_VALID_GROUPS}"
        )
    return group


# ----------------------------------------------------------------------
# The fold: every family outside the ``live`` group, and the one function
# that turns a closed span into its samples.
# ----------------------------------------------------------------------

_JOB_PHASE = ("job", "phase")
_PLAN = ("algorithm", "quantity")

#: Every family of the ``run``, ``faults``, ``wall`` and ``profile``
#: groups: name -> (type, labels, group, help[, histogram buckets]).
FAMILIES: Dict[str, Tuple[Any, ...]] = {
    # -- from task and attempt spans ------------------------------------
    "repro_map_records_total": (
        "counter", ("job", "input", "direction"), GROUP_RUN,
        "Records entering (direction=in) and pairs leaving (direction=out) "
        "map tasks, per input relation.",
    ),
    "repro_reduce_records_total": (
        "counter", ("job", "direction"), GROUP_RUN,
        "Records entering (direction=in) and leaving (direction=out) "
        "reduce tasks.",
    ),
    "repro_reduce_task_load": (
        "histogram", ("job",), GROUP_RUN,
        "Distribution of physical reduce-task input loads (records).",
    ),
    "repro_fs_attempts_total": (
        "counter", ("event",), GROUP_FAULTS,
        "Commit-protocol attempt files staged/promoted/discarded.",
    ),
    "repro_profile_cpu_seconds_total": (
        "counter", ("job", "phase", "where"), GROUP_PROFILE,
        "CPU seconds, thread_time-measured.  where=task charges task bodies "
        "that ran in this process (none for attempts shipped to a pool "
        "worker); where=driver charges the coordinating thread across the "
        "phase — under the serial executor task CPU is a subset of driver "
        "CPU.",
    ),
    # -- from phase spans -----------------------------------------------
    "repro_phase_wall_seconds": (
        "histogram", _JOB_PHASE, GROUP_WALL,
        "Wall-clock seconds spent in each job phase.", SECONDS_BUCKETS,
    ),
    "repro_profile_mem_rss_peak_bytes": (
        "gauge", _JOB_PHASE, GROUP_PROFILE,
        "Process peak RSS at phase end (monotonic across phases).",
    ),
    "repro_profile_shm_bytes_total": (
        "counter", ("job", "phase", "direction"), GROUP_PROFILE,
        "Column bytes shipped via multiprocessing.shared_memory blocks "
        "instead of pickles (columnar data plane).",
    ),
    # -- from job spans -------------------------------------------------
    "repro_job_wall_seconds": (
        "histogram", ("job",), GROUP_WALL,
        "Wall-clock seconds per MapReduce job.", SECONDS_BUCKETS,
    ),
    "repro_shuffle_records_total": (
        "counter", ("job",), GROUP_RUN,
        "Intermediate pairs routed through the shuffle.",
    ),
    "repro_shuffle_partition_records": (
        "gauge", ("job", "partition"), GROUP_RUN,
        "Records routed to each physical reduce partition.",
    ),
    "repro_key_load": (
        "histogram", ("job",), GROUP_RUN,
        "Per-logical-reducer (distinct intermediate key) load distribution "
        "— the key-skew histogram.",
    ),
    "repro_replication_factor": (
        "gauge", ("job",), GROUP_RUN,
        "Map-output pairs emitted per input record of the job (tuples "
        "emitted / distinct input tuples).",
    ),
    "repro_faults_total": (
        "counter", ("job", "kind"), GROUP_FAULTS,
        "Fault-injection bookkeeping: failed/retried attempts per job.",
    ),
    # -- from reconciliation spans ---------------------------------------
    "repro_plan_predicted": (
        "gauge", _PLAN, GROUP_RUN,
        "Cost-model-predicted run quantity for the executed plan.",
    ),
    "repro_plan_observed": (
        "gauge", _PLAN, GROUP_RUN,
        "Observed run quantity joined against the plan prediction.",
    ),
    "repro_plan_relative_error": (
        "gauge", _PLAN, GROUP_RUN,
        "Signed relative error of the plan prediction ((predicted - "
        "observed) / |observed|).",
    ),
}


def _family(registry: MetricsRegistry, name: str) -> Any:
    """The registered metric of one :data:`FAMILIES` entry."""
    metric = registry.get(name)
    if metric is None:
        kind, labels, group, help_text, *buckets = FAMILIES[name]
        metric = getattr(registry, kind)(
            name, help_text, labels, group, *buckets
        )
    return metric


def _fold_attempt(registry: MetricsRegistry, span: Span) -> Sequence[str]:
    """Commit-protocol traffic of one attempt: a staged file, discarded
    again unless the attempt won.  All a failed attempt folds into —
    attempt traffic varies under chaos, so the family lives in the
    ``faults`` group."""
    if span.attributes.get("staged"):
        attempts = _family(registry, "repro_fs_attempts_total")
        attempts.inc(1, event="staged")
        if span.kind == "attempt":
            attempts.inc(1, event="discarded")
    return ()


def _fold_task(registry: MetricsRegistry, span: Span) -> Sequence[str]:
    """A winning attempt: what the task read and wrote, and — on a
    profiled run, for a body that ran in-process — its CPU seconds."""
    attrs = span.attributes
    job, phase = attrs.get("job", ""), attrs.get("phase", span.name)
    skipped: Sequence[str] = ()
    if phase == "map":
        if "input" in attrs:
            # Out ÷ in per input is the paper's *replication factor* of
            # that relation: pairs emitted per distinct input tuple.
            labels = {"job": job, "input": attrs["input"]}
            reads = span.counters.get("framework", {})
            records = _family(registry, "repro_map_records_total")
            records.inc(
                reads.get("map_input_records", 0), direction="in", **labels
            )
            records.inc(
                attrs.get("output_pairs", 0), direction="out", **labels
            )
        else:
            skipped = ("repro_map_records_total",)
    elif phase == "reduce":
        load = attrs.get("input_records", 0)
        records = _family(registry, "repro_reduce_records_total")
        records.inc(load, job=job, direction="in")
        records.inc(attrs.get("output_records", 0), job=job, direction="out")
        _family(registry, "repro_reduce_task_load").observe(load, job=job)
        _fold_attempt(registry, span)
        if "staged" not in attrs:  # every winner staged its output
            skipped = ("repro_fs_attempts_total",)
    if "profile_cpu_seconds" in attrs:
        _family(registry, "repro_profile_cpu_seconds_total").inc(
            attrs["profile_cpu_seconds"], where="task", job=job, phase=phase
        )
    return skipped


def _fold_phase(registry: MetricsRegistry, span: Span) -> Sequence[str]:
    attrs = span.attributes
    labels = {"job": attrs.get("job", span.name), "phase": span.name}
    _family(registry, "repro_phase_wall_seconds").observe(
        span.duration, **labels
    )
    if "profile_cpu_driver_seconds" in attrs:
        # The profiler annotated this phase: the profile group follows.
        _family(registry, "repro_profile_cpu_seconds_total").inc(
            attrs["profile_cpu_driver_seconds"], where="driver", **labels
        )
        if "profile_mem_rss_peak_bytes" in attrs:
            _family(registry, "repro_profile_mem_rss_peak_bytes").set(
                attrs["profile_mem_rss_peak_bytes"], **labels
            )
        if "shm_bytes" in attrs:
            _family(registry, "repro_profile_shm_bytes_total").inc(
                attrs["shm_bytes"], direction="request", **labels
            )
    return ()


def _fold_job(registry: MetricsRegistry, span: Span) -> Sequence[str]:
    """Job-level shuffle, skew, replication and fault facts (a job that
    failed closes its span without them and leaves only wall time)."""
    attrs = span.attributes
    job = attrs.get("job", span.name)
    _family(registry, "repro_job_wall_seconds").observe(span.duration, job=job)
    if "shuffled_records" not in attrs:
        return ()
    _family(registry, "repro_shuffle_records_total").inc(
        attrs["shuffled_records"], job=job
    )
    partition_records = _family(registry, "repro_shuffle_partition_records")
    for index, records in enumerate(attrs.get("reduce_task_loads", ())):
        partition_records.set(records, job=job, partition=f"{index:05d}")
    framework = span.counters.get("framework", {})
    reads = framework.get("map_input_records", 0)
    if reads:
        _family(registry, "repro_replication_factor").set(
            framework.get("map_output_records", 0) / reads, job=job
        )
    faults_total = _family(registry, "repro_faults_total")
    for kind, value in sorted(span.counters.get("faults", {}).items()):
        if value:
            faults_total.inc(value, job=job, kind=kind)
    if attrs.get("promoted"):
        _family(registry, "repro_fs_attempts_total").inc(
            attrs["promoted"], event="promoted"
        )
    if "key_loads" not in attrs:
        return ("repro_key_load",)
    key_load = _family(registry, "repro_key_load")
    for entry in attrs["key_loads"]:
        # ``(repr(key), load)`` pairs; an older trace holds bare loads.
        key_load.observe(
            entry[1] if isinstance(entry, (list, tuple)) else entry, job=job
        )
    return ()


def _fold_reconciliation(
    registry: MetricsRegistry, span: Span
) -> Sequence[str]:
    """Every reconciliation row as three gauges.  All are deterministic
    facts of the computation — the analytic prediction depends only on
    the data profile and the observed side lives in the ``run`` counter
    groups — so they are executor- and fault-invariant like the rest of
    the ``run`` group."""
    algorithm = span.attributes.get("algorithm", span.name)
    for side in ("predicted", "observed", "relative_error"):
        gauge = _family(registry, f"repro_plan_{side}")
        for row in span.attributes.get("rows", ()):
            gauge.set(row[side], algorithm=algorithm, quantity=row["quantity"])
    return ()


_FOLDS: Dict[str, Callable[[MetricsRegistry, Span], Sequence[str]]] = {
    "task": _fold_task,
    "attempt": _fold_attempt,
    "phase": _fold_phase,
    "job": _fold_job,
    "reconciliation": _fold_reconciliation,
}


def fold_span(registry: MetricsRegistry, span: Span) -> Sequence[str]:
    """Fold one closed span into ``registry``.

    Reads nothing but what a JSONL trace preserves (kind, name, times,
    attributes, counter deltas), so folding a reloaded trace in file
    order gives the registry the live run had.  Returns the names of the
    families it had to leave out because the span predates the
    attributes they are computed from — none for a current trace.
    """
    fold = _FOLDS.get(span.kind)
    return fold(registry, span) if fold is not None else ()


def fold_spans(
    spans: Iterable[Span],
) -> Tuple[MetricsRegistry, List[str]]:
    """The registry of a recorded span sequence (close order, as a JSONL
    trace holds it; spans still open are passed over) and the sorted
    names of the families that an older trace could not supply."""
    registry = MetricsRegistry()
    skipped = set()
    for span in spans:
        if span.end is not None:
            skipped.update(fold_span(registry, span))
    return registry, sorted(skipped)


class MetricsFold(TraceSink):
    """The sink that keeps a registry equal to the fold of every span
    closed so far — what fills ``TraceRecorder.metrics``, so ``/metrics``
    is current mid-run."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def emit(self, span: Span) -> None:
        fold_span(self.registry, span)
