"""Data-plane profiler overhead gate (< 10 % of the unprofiled run).

The profiler's contract is that its default level is cheap enough to
leave on: a sampling stack walker (4 ms period), RSS/allocated-blocks
watermarks and serialization-boundary timing, annotated on the spans it
watches, but *no* tracemalloc (the ``full`` level's tracemalloc
watermarks cost several hundred percent and are opt-in only).  This
benchmark pins that contract:

* times a two-way join observed-but-unprofiled and observed-profiled
  (best of ``REPEATS`` each, interleaved so drift hits both arms
  equally) — the profiler is an increment on an observed run (``repro
  run --profile`` implies observation), so its own cost is what the
  gate isolates,
* asserts the profiled run stays under ``MAX_OVERHEAD_FRACTION``,
* asserts profiled output is bit-identical to the unprofiled run, and
* runs one profiled query per executor, asserting every backend reports
  the profile metric families (the processes backend must also report
  pickle bytes — its serialization boundary is real).

The workload is sized so the run takes hundreds of milliseconds: the
profiler has a few milliseconds of fixed start/stop cost (the sampler
thread) that would swamp a micro-run but is irrelevant at any
scale worth profiling.  Writes ``BENCH_profile.json`` with the measured
overhead fraction.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import pytest  # noqa: E402

from common import emit_bench_json, print_section, render_table  # noqa: E402

from repro.core.executor import execute  # noqa: E402
from repro.core.query import IntervalJoinQuery  # noqa: E402
from repro.mapreduce.runner import (  # noqa: E402
    EXECUTORS,
    shutdown_worker_pools,
)
from repro.obs import TraceRecorder  # noqa: E402
from repro.workloads import SyntheticConfig, generate_relation  # noqa: E402

#: The profiled run's wall clock may exceed the observed-unprofiled
#: run's by at most this fraction (the < 10 % budget, measured best-of).
MAX_OVERHEAD_FRACTION = 0.10

REPEATS = 5
RELATION_ROWS = 8_000
NUM_PARTITIONS = 8

QUERY = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])


def make_data(rows=RELATION_ROWS):
    return {
        name: generate_relation(
            name,
            SyntheticConfig(
                n=rows,
                t_range=(0, 100_000),
                length_range=(1, 100),
                seed=index,
            ),
        )
        for index, name in enumerate(("R1", "R2"))
    }


def _run(data, executor="serial", workers=2, profile=False):
    observer = TraceRecorder(profile=profile)
    start = time.perf_counter()
    result = execute(
        QUERY,
        data,
        algorithm="two_way",
        num_partitions=NUM_PARTITIONS,
        executor=executor,
        workers=workers,
        observer=observer,
    )
    elapsed = time.perf_counter() - start
    observer.close()
    return result, elapsed, observer


def measure_overhead(data, repeats=REPEATS):
    """Best-of wall clock of the plain and profiled arms, interleaved."""
    plain_best = profiled_best = None
    plain_ids = profiled_ids = None
    for _ in range(repeats):
        result, elapsed, _ = _run(data, profile=False)
        plain_best = elapsed if plain_best is None else min(plain_best, elapsed)
        plain_ids = result.tuple_ids()
        result, elapsed, _ = _run(data, profile=True)
        profiled_best = (
            elapsed if profiled_best is None else min(profiled_best, elapsed)
        )
        profiled_ids = result.tuple_ids()
    assert profiled_ids == plain_ids, "profiled output diverged"
    return plain_best, profiled_best


def profile_families(data, executor, workers=2):
    """Names of ``profile``-group families a profiled run reported."""
    _, _, observer = _run(data, executor=executor, profile=True)
    snapshot = observer.metrics.as_dict()
    return {
        name
        for name, entry in snapshot.items()
        if entry.get("group") == "profile" and entry.get("samples")
    }


def main() -> None:
    data = make_data()
    print_section(
        f"Data-plane profiler overhead — {QUERY!s}, "
        f"n={RELATION_ROWS} per relation, {NUM_PARTITIONS} partitions"
    )
    plain_s, profiled_s = measure_overhead(data)
    overhead = profiled_s / plain_s - 1.0
    print(
        render_table(
            f"best of {REPEATS} (serial executor)",
            ["arm", "seconds", "vs observed"],
            [
                ["observed (unprofiled)", f"{plain_s:.4f}", "1.0000"],
                ["observed + profiled", f"{profiled_s:.4f}",
                 f"{profiled_s / plain_s:.4f}"],
            ],
        )
    )
    assert overhead < MAX_OVERHEAD_FRACTION, (
        f"profiler costs {overhead:.2%} of the run — over the "
        f"{MAX_OVERHEAD_FRACTION:.0%} budget"
    )
    print(
        f"overhead {overhead:+.4%} < {MAX_OVERHEAD_FRACTION:.0%} budget: ok"
    )

    small = make_data(400)
    per_executor = {}
    try:
        for executor in EXECUTORS:
            families = profile_families(small, executor)
            assert any(
                name.startswith("repro_profile_cpu") for name in families
            ), f"{executor}: no CPU profile metrics"
            if executor == "processes":
                assert "repro_profile_pickle_bytes_total" in families, (
                    "processes executor reported no pickle traffic"
                )
            per_executor[executor] = len(families)
            print(f"{executor}: {len(families)} profile families")
    finally:
        shutdown_worker_pools()

    emit_bench_json(
        "profile",
        {
            "rows": RELATION_ROWS,
            "observed_seconds": round(plain_s, 6),
            "profiled_seconds": round(profiled_s, 6),
            "overhead_fraction": round(overhead, 6),
            "profile_families": per_executor,
            "note": (
                "overhead is profiled-vs-observed (the profiler's own "
                "increment), default ('cpu') level only; the opt-in "
                "'full' level adds tracemalloc and is far over this "
                "budget by design"
            ),
        },
    )


# ---------------------------------------------------------------- pytest
@pytest.mark.parametrize("profile", [False, True], ids=["plain", "profiled"])
def test_profile_wallclock(benchmark, profile):
    data = make_data(300)
    result = benchmark.pedantic(
        lambda: _run(data, profile=profile)[0], rounds=1, iterations=1
    )
    assert len(result) > 0


if __name__ == "__main__":
    main()
