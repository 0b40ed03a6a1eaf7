"""Compare two benchmark documents: ``compare.py BASE.json NEW.json``.

Both files are what ``harness.py --out FILE`` writes for all four
workloads.  For every workload x end-to-end metric one row is printed —
base, new, ratio (new / base), bound, spread — with a verdict:

``same``        the change is inside ``max(bound, 2 x spread)``
``better``      it improved by more than that
``worse``       it worsened by more than that, or an exact metric differs
``unresolved``  the runs' own spread (interquartile range / median, the
                larger of the two files') exceeds the metric's bound, so
                a change of the size the bound guards cannot be told
                from noise — reported, never counted as ``same``; it is
                ``better`` only if every new run beats every base run

Exact metrics (``shuffled_records``, ``max_reducer_load``,
``modelled_cluster_s``, ``queries_failed``, and the tuple count and
digest) must be equal; the two files must come from the same seed at
full size, or the comparison is refused.  Exit status: 0 when nothing
is ``worse``, 1 when something is, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from workloads import END_TO_END, WORKLOADS, Metric


def refuse(why: str) -> int:
    print(f"cannot compare: {why}", file=sys.stderr)
    return 2


def verdict(metric: Metric, base: Dict[str, Any], new: Dict[str, Any]):
    """``(ratio, spread, verdict)`` of one metric on one workload."""
    old, now = base["value"], new["value"]
    ratio = now / old if old else float("nan")
    if metric.exact:
        return ratio, 0.0, "same" if now == old else "worse"
    spread = max(base.get("iqr_frac", 0.0), new.get("iqr_frac", 0.0))
    worsening = (now - old) / old
    if metric.better == "higher":
        worsening = -worsening
    threshold = max(metric.bound, 2 * spread)
    if worsening > threshold:
        return ratio, spread, "worse"
    if spread > metric.bound:
        # Too noisy to call unchanged; an improvement still counts when
        # every run of the new side beats every run of the base.
        if metric.better == "lower":
            clear = new["max"] < base["min"]
        else:
            clear = new["min"] > base["max"]
        return ratio, spread, "better" if clear else "unresolved"
    if -worsening > threshold:
        return ratio, spread, "better"
    return ratio, spread, "same"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> int:
    for label, document in (("base", base), ("new", new)):
        if not document.get("comparable"):
            return refuse(
                f"{label} is a --quick, --scale or partial run; only full "
                "sets at full size are comparable"
            )
    if base["seed"] != new["seed"]:
        return refuse(f"seeds differ ({base['seed']} vs {new['seed']})")

    counts = {"same": 0, "better": 0, "worse": 0, "unresolved": 0}
    header = (f"{'workload':20s} {'metric':20s} {'base':>14s} {'new':>14s} "
              f"{'ratio':>7s} {'bound':>6s} {'spread':>7s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in WORKLOADS:
        old_run = base["runs"][workload.name]
        new_run = new["runs"][workload.name]
        for metric in END_TO_END:
            old = old_run["end_to_end"].get(metric.name)
            now = new_run["end_to_end"].get(metric.name)
            if old is None or now is None:
                return refuse(f"{workload.name} lacks {metric.name}")
            ratio, spread, word = verdict(metric, old, now)
            counts[word] += 1
            print(f"{workload.name:20s} {metric.name:20s} "
                  f"{old['value']:14.6g} {now['value']:14.6g} {ratio:7.3f} "
                  f"{metric.bound:6.2f} {spread:7.3f}  {word}")
        word = "same" if old_run["result"] == new_run["result"] else "worse"
        counts[word] += 1
        print(f"{workload.name:20s} {'tuples+digest':20s} "
              f"{old_run['result']['tuples']:14d} "
              f"{new_run['result']['tuples']:14d} {'':7s} {'':6s} {'':7s}  {word}")
    print(", ".join(f"{n} {word}" for word, n in counts.items()))
    return 1 if counts["worse"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args: List[str] = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in args:
        try:
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        except (OSError, json.JSONDecodeError) as exc:
            return refuse(f"{path}: {exc}")
    return compare(*documents)


if __name__ == "__main__":
    sys.exit(main())
