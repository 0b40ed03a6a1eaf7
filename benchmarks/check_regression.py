"""Gate benchmark results against the committed baselines.

Compares freshly generated ``BENCH_*.json`` artifacts (see
``emit_bench_json`` in :mod:`benchmarks.common`) with the baselines
committed at the repository root and fails — exit status 1 — when a
wall-clock number regresses beyond the tolerance.

Two kinds of fields, two kinds of checks:

* **Wall-clock seconds** (``serial_seconds``, ``threads_seconds``,
  ``naive_double_sort_seconds``, …) are noisy and machine-dependent, so
  they pass while ``fresh <= baseline * (1 + tolerance)``.  Getting
  *faster* never fails.  The default tolerance is 0.25 (25 %),
  overridable per run with ``--tolerance`` or the
  ``REPRO_BENCH_TOLERANCE`` environment variable — CI uses a much looser
  bound because its machines differ from the one that recorded the
  baseline.
* **Deterministic fields** (``tuples``, ``rows``, ``modelled_seconds``,
  ``num_keys``) come from the simulator's cost model and the data
  generators, not the host, so they must match the baseline exactly.
  A drift here is a correctness bug, never noise.
* **Metrics snapshots** (the ``metrics`` field, a
  ``MetricsRegistry.as_dict`` dump) are fingerprinted: every family in
  the deterministic ``run`` group must match the baseline sample-for-
  sample, while the host-dependent ``wall`` group and the
  fault-injection ``faults`` group are explicitly allowlisted out of
  the comparison.  Run-group counters are executor- and
  fault-invariant by design, so any drift is a correctness bug.
  Baselines recorded before metrics snapshots existed still pass.
* **Informational fields** (``executor``, ``workers``, ``note``, the
  ``git_commit``/``generated_at``/``python`` provenance stamps, and the
  per-executor ``phases`` wall breakdowns) describe the measuring run
  and are never gated — old baselines without them pass, and new
  baselines carrying them do not fail runs from a different host.
  Replication-factor drift has its own dedicated gate,
  ``check_replication.py``, and cost-model prediction drift has
  ``check_model_error.py``.

Usage::

    python benchmarks/bench_executors.py      # writes BENCH_executors.json
    python benchmarks/bench_shuffle_sort.py   # writes BENCH_shuffle_sort.json
    python benchmarks/check_regression.py --fresh-dir . --baseline-dir <repo>

Derived ratios (``*_speedup``, ``speedup``) are reported but never
gated: they are quotients of two noisy numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Environment variable overriding the default wall-clock tolerance.
TOLERANCE_ENV = "REPRO_BENCH_TOLERANCE"

#: Relative slack allowed on wall-clock fields before a comparison fails.
DEFAULT_TOLERANCE = 0.25

#: The benchmark artifacts this gate knows about.
BENCH_FILES = (
    "BENCH_executors.json",
    "BENCH_shuffle_sort.json",
    "BENCH_explain.json",
)

#: Fields that must match the baseline bit-for-bit (simulator-determined).
EXACT_FIELDS = frozenset({"tuples", "rows", "modelled_seconds", "num_keys"})

#: Fields compared with relative tolerance (host-dependent wall clock).
WALL_SUFFIX = "_seconds"

#: Fields that describe the run rather than measure it (executor label,
#: worker count, free-form notes).  Never gated and never required:
#: baselines recorded before these fields existed still pass, and
#: baselines recorded with them do not fail fresh runs from a
#: differently-provisioned host.
INFORMATIONAL_FIELDS = frozenset(
    {
        "executor",
        "workers",
        "note",
        # Provenance stamps (emit_bench_json envelope; also harmless if a
        # payload ever carries them): where/when the numbers came from,
        # never what they should be.
        "git_commit",
        "generated_at",
        "python",
        # Nested per-executor phase wall-clock breakdowns — pure
        # diagnostics, as host-dependent as any other wall number but
        # without a stable scalar to gate.
        "phases",
    }
)

#: Metric groups allowlisted out of the ``metrics`` fingerprint: the
#: ``wall`` group is host wall-clock (noise by definition), the
#: ``faults`` group depends on whether the run injected faults, the
#: ``profile`` group is the data-plane profiler's CPU/memory
#: accounting (host-dependent and only present on profiled runs), and
#: the ``live`` group is the telemetry hub's running-task/progress/ETA
#: state (wall-clock ETAs, only present on monitored runs).  Every
#: other group — in practice ``run`` — is deterministic and compared
#: sample-for-sample.
SKIPPED_METRIC_GROUPS = frozenset({"wall", "faults", "profile", "live"})


class Comparison:
    """One field-level comparison between baseline and fresh values."""

    def __init__(
        self,
        label: str,
        field: str,
        baseline: Any,
        fresh: Any,
        ok: bool,
        note: str,
    ) -> None:
        self.label = label
        self.field = field
        self.baseline = baseline
        self.fresh = fresh
        self.ok = ok
        self.note = note

    def render(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return (
            f"  [{status}] {self.label}.{self.field}: "
            f"baseline={self.baseline} fresh={self.fresh} ({self.note})"
        )


def _load(path: str) -> Optional[Dict[str, Any]]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _compare_scalar(
    label: str, field: str, baseline: Any, fresh: Any, tolerance: float
) -> Optional[Comparison]:
    """Compare one field; ``None`` means the field is not gated."""
    if field in EXACT_FIELDS:
        ok = baseline == fresh
        return Comparison(
            label, field, baseline, fresh, ok, "exact match required"
        )
    if field.endswith(WALL_SUFFIX) and isinstance(baseline, (int, float)):
        if not isinstance(fresh, (int, float)) or baseline <= 0:
            return Comparison(
                label, field, baseline, fresh, False, "not comparable"
            )
        ratio = fresh / baseline
        ok = ratio <= 1.0 + tolerance
        return Comparison(
            label,
            field,
            baseline,
            fresh,
            ok,
            f"ratio {ratio:.2f}, tolerance +{tolerance:.0%}",
        )
    return None


def _metric_fingerprint(
    snapshot: Dict[str, Any],
) -> Dict[str, Tuple[Tuple[Any, Any], ...]]:
    """``family name -> sorted (labels, value) samples`` for every
    family outside the allowlisted noisy groups."""
    families: Dict[str, Tuple[Tuple[Any, Any], ...]] = {}
    for name, entry in snapshot.items():
        if not isinstance(entry, dict):
            continue
        if entry.get("group") in SKIPPED_METRIC_GROUPS:
            continue
        families[name] = tuple(
            sorted(
                (tuple(sample.get("labels", ())), sample.get("value"))
                for sample in entry.get("samples", ())
            )
        )
    return families


def _compare_metrics(
    label: str, baseline: Any, fresh: Any
) -> Iterable[Comparison]:
    """Fingerprint comparison of two ``MetricsRegistry.as_dict``
    snapshots (deterministic groups only, see SKIPPED_METRIC_GROUPS)."""
    if not isinstance(baseline, dict):
        return
    if not isinstance(fresh, dict):
        yield Comparison(
            label, "metrics", "snapshot", fresh, False,
            "metrics snapshot missing from fresh run",
        )
        return
    base_families = _metric_fingerprint(baseline)
    fresh_families = _metric_fingerprint(fresh)
    for name in sorted(set(base_families) | set(fresh_families)):
        field = f"metrics.{name}"
        if name not in fresh_families:
            yield Comparison(
                label, field, "present", "absent", False,
                "deterministic family missing from fresh run",
            )
        elif name not in base_families:
            yield Comparison(
                label, field, "absent", "present", False,
                "deterministic family absent from baseline "
                "(regenerate the baseline)",
            )
        else:
            ok = base_families[name] == fresh_families[name]
            yield Comparison(
                label,
                field,
                f"{len(base_families[name])} sample(s)",
                f"{len(fresh_families[name])} sample(s)",
                ok,
                "run-group fingerprint, exact match required"
                if ok
                else "sample values drifted from the baseline",
            )


def _compare_mapping(
    label: str,
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float,
) -> Iterable[Comparison]:
    for field, base_value in sorted(baseline.items()):
        if field in INFORMATIONAL_FIELDS:
            continue
        if field == "metrics":
            yield from _compare_metrics(label, base_value, fresh.get(field))
            continue
        if field not in fresh:
            yield Comparison(
                label, field, base_value, None, False, "missing from fresh run"
            )
            continue
        comparison = _compare_scalar(
            label, field, base_value, fresh[field], tolerance
        )
        if comparison is not None:
            yield comparison


def compare_results(
    name: str,
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float,
) -> List[Comparison]:
    """Compare the ``results`` payloads of one benchmark artifact."""
    comparisons: List[Comparison] = []
    base_results = baseline.get("results", {})
    fresh_results = fresh.get("results", {})

    base_workloads = {
        row.get("workload"): row
        for row in base_results.get("workloads", [])
    }
    fresh_workloads = {
        row.get("workload"): row
        for row in fresh_results.get("workloads", [])
    }
    for workload, base_row in sorted(base_workloads.items()):
        label = f"{name}:{workload}"
        fresh_row = fresh_workloads.get(workload)
        if fresh_row is None:
            comparisons.append(
                Comparison(
                    label, "workload", workload, None, False,
                    "workload missing from fresh run",
                )
            )
            continue
        comparisons.extend(
            _compare_mapping(label, base_row, fresh_row, tolerance)
        )

    scalars = {
        field: value
        for field, value in base_results.items()
        if field != "workloads"
    }
    comparisons.extend(
        _compare_mapping(name, scalars, fresh_results, tolerance)
    )
    return comparisons


def check(
    baseline_dir: str, fresh_dir: str, tolerance: float
) -> Tuple[List[Comparison], List[str]]:
    """Run every known artifact through the gate.

    Returns the comparisons plus a list of structural errors (missing
    files) that fail the gate on their own.
    """
    comparisons: List[Comparison] = []
    errors: List[str] = []
    for filename in BENCH_FILES:
        baseline = _load(os.path.join(baseline_dir, filename))
        fresh = _load(os.path.join(fresh_dir, filename))
        if baseline is None:
            errors.append(f"baseline {filename} not found in {baseline_dir}")
            continue
        if fresh is None:
            errors.append(f"fresh {filename} not found in {fresh_dir}")
            continue
        comparisons.extend(
            compare_results(
                baseline.get("benchmark", filename), baseline, fresh, tolerance
            )
        )
    return comparisons, errors


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Fail when fresh BENCH_*.json results regress against the "
            "committed baselines."
        )
    )
    parser.add_argument(
        "--baseline-dir",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="directory holding the committed BENCH_*.json baselines "
        "(default: the repository root)",
    )
    parser.add_argument(
        "--fresh-dir",
        default=".",
        help="directory holding the freshly generated BENCH_*.json "
        "artifacts (default: current directory)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=f"allowed relative wall-clock slowdown (default "
        f"{DEFAULT_TOLERANCE}, or ${TOLERANCE_ENV})",
    )
    args = parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(
            os.environ.get(TOLERANCE_ENV, str(DEFAULT_TOLERANCE))
        )
    if tolerance < 0:
        parser.error("--tolerance must be non-negative")

    comparisons, errors = check(args.baseline_dir, args.fresh_dir, tolerance)

    print(
        f"bench regression gate — tolerance +{tolerance:.0%} on wall clock, "
        f"exact on {', '.join(sorted(EXACT_FIELDS))}"
    )
    for comparison in comparisons:
        print(comparison.render())
    for error in errors:
        print(f"  [FAIL] {error}")

    failures = [c for c in comparisons if not c.ok]
    if failures or errors:
        print(
            f"FAILED: {len(failures)} regressed field(s), "
            f"{len(errors)} structural error(s)"
        )
        return 1
    print(f"OK: {len(comparisons)} field(s) within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
