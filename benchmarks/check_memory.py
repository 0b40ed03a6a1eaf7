"""Gate the memory a run holds for its output.

A run keeps one copy of its output — the row-index blocks its final
reduce tasks committed, 8 B per member of a tuple — and builds ``Row``
tuples only when ``JoinResult.tuples`` is read, letting each block go
as its tuples are built.  Each check below runs in a fresh process (a
peak is the process's own) on the repo benchmark's seed-0 workloads
(``benchmarks/e2e/workloads.py``)::

    python benchmarks/check_memory.py            # exit 1 on a breach

* peak resident set (``VmHWM``) of ``coloc3_rccis`` at 16 times its
  size, tuples not built — nor the relations' rows, which no query
  reads;
* the same of ``hybrid3_pasm`` at 3 times its size, tuples built.

The bytes a run allocates per output tuple, read by tracemalloc, are
held to their bounds by ``tests/integration/test_memory_census.py``.
About 6 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))

from workloads import BY_NAME, build_query, generate_data, run_query  # noqa: E402

#: ``(workload, scale, tuples built)`` -> the most ``VmHWM`` MB it may reach.
PEAK_RSS_MB = {
    # The relations are columns (about 16 B a row); their rows, 288 B
    # each, are built only on request.
    ("coloc3_rccis", 16, False): 350.0,
    ("hybrid3_pasm", 3, True): 520.0,
}


def peak_rss_mb() -> float:
    """This process's peak resident set, from ``VmHWM``."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def one_peak(name: str, scale: float, forced: bool) -> Dict[str, float]:
    """Run one query and report the process's peak."""
    workload = BY_NAME[name].scaled(scale)
    query = build_query(workload)
    data = generate_data(workload, 0)
    started = time.perf_counter()
    result = run_query(workload, query, data)
    if forced:
        len(result.tuples)
    return {
        "tuples": len(result),
        "seconds": time.perf_counter() - started,
        "peak_rss_mb": peak_rss_mb(),
    }


def in_fresh_process(*args: str) -> Dict[str, float]:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", *args],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a run's output memory exceeds its bounds."
    )
    parser.add_argument("--one", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        name, scale, forced = args.one
        print(json.dumps(one_peak(name, float(scale), forced == "forced")))
        return 0

    failures = 0
    print("memory gate — fresh process per check")
    for (name, scale, forced), bound in PEAK_RSS_MB.items():
        seen = in_fresh_process(name, str(scale), "forced" if forced else "unforced")
        ok = seen["peak_rss_mb"] <= bound
        failures += not ok
        print(
            f"  [{'ok  ' if ok else 'FAIL'}] {name} x{scale}, tuples "
            f"{'built' if forced else 'not built'}: VmHWM "
            f"{seen['peak_rss_mb']:.0f} MB (bound {bound:.0f}; "
            f"{seen['tuples']:,} tuples, {seen['seconds']:.2f} s)"
        )
    if failures:
        print(f"FAILED: {failures} bound(s) exceeded")
        return 1
    print("OK: every bound held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
