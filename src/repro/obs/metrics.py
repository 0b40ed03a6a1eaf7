"""The metrics registry — a fold over the span stream.

The :class:`MetricsRegistry` is the queryable side of the observability
layer: where :class:`~repro.obs.span.Span` records *when* something
happened, a metric records *how much* of it happened, keyed by a fixed
label set.  The spans are the record and the registry is a function of
them: :func:`fold_span` turns one closed span into samples of the
families declared in :data:`FAMILIES`, and :func:`fold_spans` builds a
registry from a span sequence — a recorder's spans closed so far (what
``TraceRecorder.metrics`` returns) or a reloaded JSONL trace, which give
the same registry sample for sample.  A registry is built when it is
read, on one thread, so it takes no lock.  The families aggregate — they
sum and bucket over many spans; a fact one span already states (a job's
per-partition loads and replication factor, the plan reconciliation,
the profiler's CPU and memory facts) stays on that span, where ``repro
report`` and the dashboard read it.  Two metric types cover every
family:

* :class:`Counter` — monotonically increasing totals (records mapped,
  tasks retried, records shuffled).
* :class:`Histogram` — distributions over **fixed bucket boundaries**
  (per-reducer loads, per-key skew, phase wall seconds).

Every metric belongs to a **group**:

* ``"run"`` — deterministic facts of the computation; these
  must be bit-identical across the serial/threads/processes executors
  and invariant under fault injection (retries replay, they do not
  change the answer).
* ``"wall"`` — wall-clock timings; honest but machine-dependent.
* ``"faults"`` — chaos bookkeeping (retries, discarded attempts);
  identical across executors for a pinned fault plan but empty on a
  fault-free run.

:meth:`MetricsRegistry.fingerprint` exposes exactly that contract: the
parity tests compare fingerprints with ``exclude_groups=("wall",)`` (the
default) and add ``"faults"`` to compare a chaos run against a
fault-free one.

Worker *processes* never see the registry — they ship counter snapshots
back (see ``runner._process_attempt``), the parent puts them on the
task's span and the fold reads them there, so the merge is deterministic
by construction.  Only winning attempts close as ``kind="task"`` spans
and losing ones (``kind="attempt"``) touch nothing but the ``faults``
group, which is what makes the ``run`` group invariant under chaos.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.obs.span import Span

__all__ = [
    "MetricError",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "FAMILIES",
    "fold_span",
    "fold_spans",
    "GROUP_RUN",
    "GROUP_WALL",
    "GROUP_FAULTS",
    "LOAD_BUCKETS",
    "SECONDS_BUCKETS",
]

#: Deterministic facts of the computation (executor-invariant).
GROUP_RUN = "run"
#: Wall-clock timings (machine-dependent, excluded from parity checks).
GROUP_WALL = "wall"
#: Fault-injection bookkeeping (empty on fault-free runs).
GROUP_FAULTS = "faults"

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


class MetricError(ReproError, ValueError):
    """Raised for metric misuse: a label mismatch, a negative increment."""


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
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = labels
        self.group = group
        self._samples: Dict[Tuple[str, ...], Any] = {}

    # -- introspection --------------------------------------------------
    def samples(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """``(label_values, value)`` pairs, sorted by label values."""
        return sorted(self._samples.items())

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
        self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        key = _check_labels(self.label_names, labels, self.name)
        return self._samples.get(key, 0)

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
        buckets: Tuple[float, ...],
    ) -> None:
        super().__init__(name, help_text, labels, group)
        self.buckets = buckets

    def observe(self, value: float, **labels: Any) -> None:
        key = _check_labels(self.label_names, labels, self.name)
        state = self._samples.get(key)
        if state is None:
            state = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
            self._samples[key] = state
        state["counts"][bisect_left(self.buckets, value)] += 1
        state["sum"] += value
        state["count"] += 1

    def state(self, **labels: Any) -> Optional[Dict[str, Any]]:
        key = _check_labels(self.label_names, labels, self.name)
        state = self._samples.get(key)
        return None if state is None else dict(state)

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
    """The metric families of one span sequence, serialised
    deterministically.  Families are registered by the fold alone, from
    :data:`FAMILIES`; a registry is built on one thread and takes no
    lock."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def families(self) -> List[Metric]:
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
        exclude_groups: Tuple[str, ...] = (GROUP_WALL,)
    ) -> Dict[str, Tuple[Any, ...]]:
        """A hashable, comparable digest of the sample values.

        The parity tests assert ``a.fingerprint(...) ==
        b.fingerprint(...)``; the default excludes the machine-dependent
        ``wall`` group so deterministic content compares across
        executors, and chaos tests add ``"faults"`` to compare a chaos
        run against a fault-free one.
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
                    p50, p95 = (
                        _bucket_bound(metric.buckets, value, q)
                        for q in (0.5, 0.95)
                    )
                    lines.append(
                        f"  {metric.name}{labels} count={value['count']} "
                        f"sum={_format_number(value['sum'])} "
                        f"p50<={p50} p95<={p95}"
                    )
                else:
                    lines.append(
                        f"  {metric.name}{labels} {_format_number(value)}"
                    )
        return "\n".join(lines)


def _bucket_bound(
    buckets: Tuple[float, ...], state: Mapping[str, Any], q: float
) -> str:
    """The upper boundary of the bucket holding the q-quantile
    observation — an estimate by construction, exact for small integer
    loads — or ``+Inf`` when that observation is past the last bucket."""
    rank = max(1, int(q * state["count"] + 0.5))
    seen = 0
    for bound, count in zip(buckets, state["counts"]):
        seen += count
        if seen >= rank:
            return _format_number(bound)
    return "+Inf"


# ----------------------------------------------------------------------
# The fold: every family, and the one function that turns a closed span
# into its samples.
# ----------------------------------------------------------------------

#: Every family: name -> (type, labels, group, help[, histogram buckets]).
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
        LOAD_BUCKETS,
    ),
    "repro_fs_attempts_total": (
        "counter", ("event",), GROUP_FAULTS,
        "Commit-protocol attempt files staged/promoted/discarded.",
    ),
    # -- from phase spans -----------------------------------------------
    "repro_phase_wall_seconds": (
        "histogram", ("job", "phase"), GROUP_WALL,
        "Wall-clock seconds spent in each job phase.", SECONDS_BUCKETS,
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
    "repro_key_load": (
        "histogram", ("job",), GROUP_RUN,
        "Per-logical-reducer (distinct intermediate key) load distribution "
        "— the key-skew histogram.",
        LOAD_BUCKETS,
    ),
    "repro_faults_total": (
        "counter", ("job", "kind"), GROUP_FAULTS,
        "Fault-injection bookkeeping: failed/retried attempts per job.",
    ),
}

_KINDS = {"counter": Counter, "histogram": Histogram}


def _family(registry: MetricsRegistry, name: str) -> Any:
    """The metric of one :data:`FAMILIES` row, registered on first use."""
    metric = registry.get(name)
    if metric is None:
        kind, labels, group, help_text, *buckets = FAMILIES[name]
        metric = _KINDS[kind](name, help_text, labels, group, *buckets)
        registry._metrics[name] = metric
    return metric


def _fold_attempt(registry: MetricsRegistry, span: Span) -> None:
    """Commit-protocol traffic of one attempt: a staged file, discarded
    again unless the attempt won.  All a failed attempt folds into —
    attempt traffic varies under chaos, so the family lives in the
    ``faults`` group."""
    if span.attributes.get("staged"):
        attempts = _family(registry, "repro_fs_attempts_total")
        attempts.inc(1, event="staged")
        if span.kind == "attempt":
            attempts.inc(1, event="discarded")


def _fold_task(registry: MetricsRegistry, span: Span) -> None:
    """A winning attempt: what the task read and wrote."""
    attrs = span.attributes
    job, phase = attrs.get("job", ""), attrs.get("phase", span.name)
    if phase == "map" and "input" in attrs:
        # Out ÷ in per input is the paper's *replication factor* of
        # that relation: pairs emitted per distinct input tuple.
        labels = {"job": job, "input": attrs["input"]}
        reads = span.counters.get("framework", {})
        records = _family(registry, "repro_map_records_total")
        records.inc(
            reads.get("map_input_records", 0), direction="in", **labels
        )
        records.inc(attrs.get("output_pairs", 0), direction="out", **labels)
    elif phase == "reduce":
        load = attrs.get("input_records", 0)
        records = _family(registry, "repro_reduce_records_total")
        records.inc(load, job=job, direction="in")
        records.inc(attrs.get("output_records", 0), job=job, direction="out")
        _family(registry, "repro_reduce_task_load").observe(load, job=job)
        _fold_attempt(registry, span)


def _fold_phase(registry: MetricsRegistry, span: Span) -> None:
    _family(registry, "repro_phase_wall_seconds").observe(
        span.duration, job=span.attributes.get("job", span.name),
        phase=span.name,
    )


def _fold_job(registry: MetricsRegistry, span: Span) -> None:
    """Job-level shuffle, key-skew and fault facts (a job that failed
    closes its span without them and leaves only wall time)."""
    attrs = span.attributes
    job = attrs.get("job", span.name)
    _family(registry, "repro_job_wall_seconds").observe(span.duration, job=job)
    if "shuffled_records" not in attrs:
        return
    _family(registry, "repro_shuffle_records_total").inc(
        attrs["shuffled_records"], job=job
    )
    faults_total = _family(registry, "repro_faults_total")
    for kind, value in sorted(span.counters.get("faults", {}).items()):
        if value:
            faults_total.inc(value, job=job, kind=kind)
    if attrs.get("promoted"):
        _family(registry, "repro_fs_attempts_total").inc(
            attrs["promoted"], event="promoted"
        )
    key_load = _family(registry, "repro_key_load")
    for _, load in attrs.get("key_loads", ()):  # (repr(key), load) pairs
        key_load.observe(load, job=job)


_FOLDS: Dict[str, Callable[[MetricsRegistry, Span], None]] = {
    "task": _fold_task,
    "attempt": _fold_attempt,
    "phase": _fold_phase,
    "job": _fold_job,
}


def fold_span(registry: MetricsRegistry, span: Span) -> None:
    """Fold one closed span into ``registry``.

    Reads nothing but what a JSONL trace preserves (kind, name, times,
    attributes, counter deltas), so folding a reloaded trace in file
    order gives the registry the live run had.  An attribute the span
    lacks folds nothing.
    """
    fold = _FOLDS.get(span.kind)
    if fold is not None:
        fold(registry, span)


def fold_spans(spans: Iterable[Span]) -> MetricsRegistry:
    """The registry of a recorded span sequence (close order, as a JSONL
    trace holds it)."""
    registry = MetricsRegistry()
    for span in spans:
        fold_span(registry, span)
    return registry
