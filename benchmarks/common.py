"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's evaluation tables/figures
at laptop scale.  Data sizes are the paper's divided by a per-experiment
*scale factor*; the cost model's per-record coefficients are multiplied by
the same factor so modelled times land in the paper's magnitude range
while job-startup overhead stays fixed (startup does not shrink when data
does).  Absolute seconds are still not the point — the *shape* (who wins,
by what factor, where crossovers fall) is; EXPERIMENTS.md records both.

Each ``bench_*`` module exposes a ``main()`` that prints the full
paper-style table from deterministic counters and *modelled* seconds;
``run_paper_tables`` drives them all.  Wall-clock performance is measured
in one place, ``benchmarks/e2e``.
"""

from __future__ import annotations

import itertools
import os
from typing import Optional

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.core.results import JoinResult
from repro.mapreduce.cost import CostModel
from repro.obs import ChromeTraceSink, TraceRecorder
from repro.stats import human_count, human_seconds, render_table

__all__ = [
    "scaled_cost_model",
    "run_algorithm",
    "trace_artifact_dir",
    "human_count",
    "human_seconds",
    "render_table",
    "print_section",
]

#: Environment variable naming a directory for per-run trace artifacts.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

_TRACE_SEQ = itertools.count(1)


def trace_artifact_dir() -> Optional[str]:
    """The directory benchmark trace artifacts go to, or ``None``.

    Set ``REPRO_TRACE_DIR=/some/dir`` (or pass ``trace_dir=`` to
    :func:`run_algorithm`) and every benchmark execution writes a
    Perfetto-loadable Chrome trace-event JSON there, one file per run.
    Default off: an unobserved run is bit-identical to the seed.
    """
    directory = os.environ.get(TRACE_DIR_ENV, "").strip()
    return directory or None


def scaled_cost_model(scale: float) -> CostModel:
    """The default cost model with per-record coefficients scaled up by
    the data down-scaling factor (see module docstring).

    ``output_cost`` is zeroed: the paper's reported times cannot include
    materialising the full join output (at its stated densities the
    output would exceed what the cluster could write by orders of
    magnitude), so its time shape is communication- and straggler-driven.
    All compared algorithms produce identical output anyway, so the term
    is a constant offset; EXPERIMENTS.md discusses this in detail.
    """
    base = CostModel()
    return CostModel(
        read_cost=base.read_cost * scale,
        shuffle_cost=base.shuffle_cost * scale,
        comparison_cost=base.comparison_cost * scale,
        output_cost=0.0,
        per_cycle_overhead=base.per_cycle_overhead,
        parallelism=base.parallelism,
    )


def run_algorithm(
    query: IntervalJoinQuery,
    data,
    algorithm: str,
    *,
    num_partitions: int = 16,
    cost_model: Optional[CostModel] = None,
    grid_parts: Optional[int] = None,
    trace_dir: Optional[str] = None,
    observer: Optional[TraceRecorder] = None,
) -> JoinResult:
    """Execute one algorithm with benchmark-friendly defaults.

    When ``trace_dir`` (or ``$REPRO_TRACE_DIR``) names a directory, the
    run is observed and a Chrome trace-event artifact
    ``<algorithm>-<seq>.trace.json`` is written there.  Pass your own
    ``observer`` instead to keep the recorder (spans, job results,
    metrics) after the call; it wins over ``trace_dir``.
    """
    from repro.core.planner import ALGORITHMS

    from repro.core.validation import validate_result

    trace_dir = trace_dir or trace_artifact_dir()
    owns_observer = observer is None
    if observer is None and trace_dir:
        trace_path = os.path.join(
            trace_dir, f"{algorithm}-{next(_TRACE_SEQ):03d}.trace.json"
        )
        observer = TraceRecorder(ChromeTraceSink(trace_path))

    if grid_parts is not None:
        cls = ALGORITHMS[algorithm]
        try:
            instance = cls(grid_parts=grid_parts)  # type: ignore[call-arg]
        except TypeError:
            instance = cls()
        result = execute(
            query,
            data,
            algorithm=instance,
            num_partitions=num_partitions,
            cost_model=cost_model or CostModel(),
            observer=observer,
        )
    else:
        result = execute(
            query,
            data,
            algorithm=algorithm,
            num_partitions=num_partitions,
            cost_model=cost_model or CostModel(),
            observer=observer,
        )
    if observer is not None and owns_observer:
        observer.close()
    # Every benchmark run self-checks: tuples satisfy the query, no
    # duplicates (scales where the reference oracle cannot).
    validate_result(result)
    return result


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
