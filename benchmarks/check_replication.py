"""Gate the replication factor of a pinned RCCIS benchmark.

Replication factor — map output records ÷ map input records, per job —
is the paper's communication-cost currency (Tables 1-3 count the
intermediate pairs it produces).  Unlike wall clock it is fully
deterministic: the workload below is seeded, the simulator is
deterministic, so the factors must reproduce *exactly* on any host.  A
drift means an algorithm's routing changed — a correctness-adjacent
regression that the wall-clock gate can never see.

The gate runs the pinned workload, extracts per-job factors with
:class:`repro.obs.RunReport`, and compares them against the committed
``benchmarks/replication_baseline.json``::

    python benchmarks/check_replication.py             # gate (exit 1 on drift)
    python benchmarks/check_replication.py --update    # rewrite the baseline

``--tolerance`` (or ``$REPRO_REPLICATION_TOLERANCE``) loosens the bound;
the default 0.01 is slack for float formatting only, not for behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(__file__))

from common import run_algorithm  # noqa: E402

from repro.core.query import IntervalJoinQuery  # noqa: E402
from repro.obs import RunReport, TraceRecorder  # noqa: E402
from repro.workloads import SyntheticConfig, generate_relation  # noqa: E402

#: Environment variable overriding the default tolerance.
TOLERANCE_ENV = "REPRO_REPLICATION_TOLERANCE"

#: Absolute slack on each factor (scaled by max(expected, 1)).
DEFAULT_TOLERANCE = 0.01

#: Committed baseline, next to this script.
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "replication_baseline.json"
)

#: The pinned workload: RCCIS on a seeded colocation query.
ALGORITHM = "rccis"
QUERY = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
RELATION_ROWS = 600
NUM_PARTITIONS = 8


def pinned_factors() -> Dict[str, float]:
    """Execute the pinned workload and return per-job replication."""
    data = {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=RELATION_ROWS,
                t_range=(0, 100_000),
                length_range=(1, 100),
                seed=index,
            ),
        )
        for index, name in enumerate(("R1", "R2", "R3"))
    }
    observer = TraceRecorder()
    run_algorithm(
        QUERY,
        data,
        ALGORITHM,
        num_partitions=NUM_PARTITIONS,
        observer=observer,
    )
    report = RunReport.from_spans(observer.spans)
    return {
        name: round(factor, 6)
        for name, factor in report.replication_factors.items()
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when the pinned RCCIS benchmark's replication "
        "factors drift from the committed baseline."
    )
    parser.add_argument(
        "--baseline", default=BASELINE_PATH,
        help=f"baseline JSON path (default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help=f"allowed drift per factor (default {DEFAULT_TOLERANCE}, "
        f"or ${TOLERANCE_ENV})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from a fresh run instead of gating",
    )
    args = parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(
            os.environ.get(TOLERANCE_ENV, str(DEFAULT_TOLERANCE))
        )
    if tolerance < 0:
        parser.error("--tolerance must be non-negative")

    observed = pinned_factors()

    if args.update:
        document: Dict[str, Any] = {
            "workload": (
                f"{ALGORITHM} on {QUERY!s}, n={RELATION_ROWS} per "
                f"relation (seeds 0..2), {NUM_PARTITIONS} partitions"
            ),
            "factors": observed,
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.baseline}: {observed}")
        return 0

    if not os.path.exists(args.baseline):
        print(
            f"FAILED: baseline {args.baseline} not found "
            f"(run with --update to create it)"
        )
        return 1
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)

    expected: Dict[str, float] = baseline.get("factors", {})
    print(
        f"replication gate — {ALGORITHM} pinned workload, "
        f"tolerance {tolerance}"
    )
    failures = 0
    for job in sorted(set(expected) | set(observed)):
        want = expected.get(job)
        got = observed.get(job)
        if want is None or got is None:
            print(f"  [FAIL] {job}: baseline={want} fresh={got} (job set "
                  "changed)")
            failures += 1
            continue
        allowed = tolerance * max(want, 1.0)
        ok = abs(got - want) <= allowed
        status = "ok  " if ok else "FAIL"
        print(
            f"  [{status}] {job}: baseline={want} fresh={got} "
            f"(allowed +/-{allowed:.6f})"
        )
        failures += 0 if ok else 1
    if failures:
        print(f"FAILED: {failures} replication factor(s) drifted")
        return 1
    print(f"OK: {len(expected)} factor(s) within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
