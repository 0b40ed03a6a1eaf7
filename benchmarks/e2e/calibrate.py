"""A host-speed yardstick that shares no code with the engine.

The hosts this benchmark runs on are shared virtual machines whose
speed for interpreter- and memory-bound Python swings by up to 1.7x
over minutes (measured while building this benchmark: the same
``twoway_sparse`` query took 0.98 s in a quiet spell and 1.5-2.0 s an
hour later, nothing else running in the VM).  No statistic taken over
the queries of one run removes a swing that outlasts the run.  What
does is timing, between the queries, a fixed piece of work that slows
down the way the engine does — interpreter dispatch, allocation,
sorting and grouping of small tuples, pointer chasing through the heap —
and reporting query seconds per *nominal* kernel second.

Interleaved series (two kernel calls, one query, for 8-12 minutes on a
noisy host; spread = interquartile range / median of the medians of
consecutive windows of three queries, drift = second half of the series
over the first):

    workload               raw spread  raw drift   scaled spread  drift
    hybrid3_pasm              0.40       +0.44         0.07       +0.02
    coloc3_rccis              0.13       +0.10         0.09       -0.02
    twoway_sparse             0.18       -0.04         0.11       -0.02
    twoway_sparse_procs       0.17       +0.15         0.11       -0.01

A bound of 0.25 — the widest the pipeline allows — does not hold the raw
numbers; it holds the scaled ones.

The kernel must never import ``repro``: a change to the engine may not
move the yardstick.
"""

from __future__ import annotations

import time
from operator import itemgetter

#: What one :func:`kernel` call takes on the reference host (2 cores,
#: CPython 3.11) in a quiet spell.  It only fixes the unit: a run whose
#: kernel calls take this long reports its raw seconds unchanged.
NOMINAL_KERNEL_S = 0.13


def kernel() -> float:
    """Run the fixed work once; returns the seconds it took."""
    started = time.perf_counter()
    # Interpreter dispatch on cache-resident data.
    total = 0
    for i in range(1_000_000):
        total += i * i
    # Allocate, sort and group small tuples: the allocator and the cache.
    rows = [(i * 7919 % 100_003, (i, float(i))) for i in range(100_000)]
    rows.sort(key=itemgetter(0))
    groups: dict = {}
    for key, value in rows:
        groups.setdefault(key & 1023, []).append(value)
    # The sort scrambled allocation order, so this walk chases pointers
    # through the heap the way a join walks its rows.
    drift = 0.0
    for _, (index, value) in rows:
        drift += value - index
    return time.perf_counter() - started
