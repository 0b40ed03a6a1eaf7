#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation.

Runs each benchmark module's ``main()`` in sequence and prints the
paper-style tables.  Typical use::

    python benchmarks/run_paper_tables.py            # everything
    python benchmarks/run_paper_tables.py table1 fig4  # a subset

The full run takes about a minute and writes nothing;
``benchmarks/reference_transcript.txt`` is its committed output and
EXPERIMENTS.md the paper-vs-measured discussion.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import bench_ablation_partitions  # noqa: E402
import bench_ablation_shares  # noqa: E402
import bench_ablation_skew  # noqa: E402
import bench_fig4_load_balance  # noqa: E402
import bench_fig5_sequence  # noqa: E402
import bench_table1_colocation  # noqa: E402
import bench_table2_packet_trains  # noqa: E402
import bench_table3_hybrid  # noqa: E402
import bench_table4_genmatrix  # noqa: E402

EXPERIMENTS = {
    "table1": bench_table1_colocation.main,
    "table2": bench_table2_packet_trains.main,
    "fig4": bench_fig4_load_balance.main,
    "fig5": bench_fig5_sequence.main,
    "table3": bench_table3_hybrid.main,
    "table4": bench_table4_genmatrix.main,
    "ablation_partitions": bench_ablation_partitions.main,
    "ablation_shares": bench_ablation_shares.main,
    "ablation_skew": bench_ablation_skew.main,
}


def main(argv) -> int:
    chosen = argv[1:] or list(EXPERIMENTS)
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {sorted(EXPERIMENTS)}")
        return 2
    started = time.time()
    for name in chosen:
        t0 = time.time()
        EXPERIMENTS[name]()
        print(f"\n[{name} regenerated in {time.time() - t0:.1f}s wall]")
    print(f"\nall done in {time.time() - started:.1f}s wall")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
