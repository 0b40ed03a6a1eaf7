"""A thread-safe metrics registry with Prometheus-style exposition.

The :class:`MetricsRegistry` is the queryable side of the observability
layer: where :class:`~repro.obs.span.Span` records *when* something
happened, a metric records *how much* of it happened, keyed by a fixed
label set.  Three metric types cover every signal the simulator emits:

* :class:`Counter` — monotonically increasing totals (records mapped,
  tasks retried, bytes-ish shuffled).
* :class:`Gauge` — last-written values (replication factor of a job,
  consistent vs total reducers of a grid).
* :class:`Histogram` — distributions over **fixed bucket boundaries**
  (per-reducer loads, per-key skew, phase wall seconds).  Fixed
  boundaries make histograms mergeable by plain addition, exactly like
  :meth:`Counters.from_dict <repro.mapreduce.counters.Counters>` merges
  worker counter snapshots.

Every metric belongs to a **group**:

* ``"run"`` (default) — deterministic facts of the computation; these
  must be bit-identical across the serial/threads/processes executors
  and invariant under fault injection (retries replay, they do not
  change the answer).
* ``"wall"`` — wall-clock timings; honest but machine-dependent.
* ``"faults"`` — chaos bookkeeping (retries, discarded attempts);
  identical across executors for a pinned fault plan but empty on a
  fault-free run.
* ``"profile"`` — data-plane profiling facts (CPU seconds, pickle
  bytes, GC pauses; see :mod:`repro.obs.profile`).  Machine- and
  executor-dependent by nature, so excluded from parity like ``wall``.

:meth:`MetricsRegistry.fingerprint` exposes exactly that contract: the
parity tests compare fingerprints with ``exclude_groups=("wall",
"profile")`` (the default) and add ``"faults"`` to compare a chaos run
against a fault-free one.

Worker *processes* never see the registry — they ship counter snapshots
back (see ``runner._process_attempt``) and the parent records
metrics from those, so the merge is deterministic by construction.
Worker *threads* write through the registry lock.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "MetricError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
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
#: Live operational telemetry — heartbeat counts, progress/ETA gauges,
#: watchdog flags.  Cadence-driven and configuration-dependent, so
#: excluded from parity fingerprints.
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

    def _absorb_sample(self, key: Tuple[str, ...], payload: Any) -> None:
        raise NotImplementedError

    def _exposition_lines(self) -> List[str]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total; merge is addition."""

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

    def _absorb_sample(self, key: Tuple[str, ...], payload: Any) -> None:
        self._samples[key] = self._samples.get(key, 0) + payload

    def _exposition_lines(self) -> List[str]:
        lines = []
        for key, value in self.samples():
            labels = _label_pairs(self.label_names, key)
            lines.append(f"{self.name}{labels} {_format_number(value)}")
        return lines


class Gauge(Metric):
    """A last-write-wins value; merge keeps the merged-in value."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _check_labels(self.label_names, labels, self.name)
        with self._lock:
            self._samples[key] = value

    def value(self, **labels: Any) -> Optional[float]:
        key = _check_labels(self.label_names, labels, self.name)
        with self._lock:
            return self._samples.get(key)

    def _absorb_sample(self, key: Tuple[str, ...], payload: Any) -> None:
        self._samples[key] = payload

    def _exposition_lines(self) -> List[str]:
        lines = []
        for key, value in self.samples():
            labels = _label_pairs(self.label_names, key)
            lines.append(f"{self.name}{labels} {_format_number(value)}")
        return lines


class Histogram(Metric):
    """Cumulative-bucket distribution over fixed boundaries.

    Because every registry instantiates the same boundaries, two
    histograms merge by adding bucket counts — no resampling, no loss —
    which is what makes cross-worker aggregation deterministic.
    """

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

    def _absorb_sample(self, key: Tuple[str, ...], payload: Any) -> None:
        state = self._samples.get(key)
        if state is None:
            state = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
            self._samples[key] = state
        counts = payload["counts"]
        if len(counts) != len(state["counts"]):
            raise MetricError(
                f"histogram {self.name!r} merge: bucket count mismatch"
            )
        for index, count in enumerate(counts):
            state["counts"][index] += count
        state["sum"] += payload["sum"]
        state["count"] += payload["count"]

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
        # Reentrant: the profiler's GC callback records into the registry
        # from whichever thread triggered the collection, which may be
        # inside a registry call (holding this lock) already.
        self._lock = threading.RLock()
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

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` output."""
        registry = cls()
        registry.merge_dict(payload)
        return registry

    def merge_dict(self, payload: Mapping[str, Any]) -> None:
        """Fold a serialised snapshot in: counters and histograms add,
        gauges take the merged-in value (last write wins)."""
        for name in sorted(payload):
            entry = payload[name]
            kind = entry["type"]
            labels = tuple(entry.get("labels", ()))
            group = entry.get("group", GROUP_RUN)
            if kind == "counter":
                metric: Metric = self.counter(
                    name, entry.get("help", ""), labels, group
                )
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""), labels, group)
            elif kind == "histogram":
                metric = self.histogram(
                    name,
                    entry.get("help", ""),
                    labels,
                    group,
                    tuple(entry.get("buckets", LOAD_BUCKETS)),
                )
            else:
                raise MetricError(f"unknown metric type {kind!r} for {name!r}")
            with self._lock:
                for sample in entry.get("samples", ()):
                    key = tuple(sample["labels"])
                    if kind == "histogram":
                        metric._absorb_sample(key, sample)
                    else:
                        metric._absorb_sample(key, sample["value"])

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (same semantics as merge_dict)."""
        self.merge_dict(other.as_dict())

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
        """A compact human-readable rundown for ``repro run --metrics``."""
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
