"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    The paper's synthetic interval script as a CLI: writes a relation of
    random intervals (sizes, distributions, ranges all configurable).
``trace``
    Generate a synthetic packet trace profile and write its packet-train
    intervals.
``run``
    Execute an interval join query over relation files, print its
    headline numbers and optionally write the output tuples (``-o``).
    It records; ``report`` reads: ``--trace`` writes the JSONL span log
    every report is rebuilt from.  ``--explain`` prints the EXPLAIN plan
    before running and the predicted-vs-observed reconciliation after;
    ``--profile`` records and prints the data-plane rundown (per-phase
    CPU and memory watermarks).  Live monitoring — running / finished
    tasks and progress/ETA, folded from the span stream:
    ``--progress`` (in-terminal progress/ETA ticker) and
    ``--serve-status PORT`` (HTTP endpoint with ``/metrics`` and
    ``/progress``).
``explain``
    Render the physical plan for a query without running it: planner
    rationale (chosen algorithm and why each alternative was rejected,
    or the Allen path-consistency emptiness proof), MapReduce cycles,
    reducer-grid shape, partitioner and, per condition, the sweep
    windows and mask the pair kernel runs, plus the cost model's
    analytic predictions (``--exact`` runs the plan's map and shuffle
    instead when relations are bound).
``report``
    Read a saved JSONL span trace, after the run is gone: the run report
    (skew, stragglers, empty-output tasks, faults, the predicted-vs-
    observed plan reconciliation) and the metric summary, plus
    ``--metrics-out`` (JSON or Prometheus text), ``--html`` (one
    self-contained dashboard page) and ``--profile`` (the data-plane
    rundown).  Degrades
    gracefully on traces from older versions: unknown lines are
    warnings, missing plan spans just skip their sections, and metric
    families whose span attributes the trace predates are named.
``histogram``
    The exact Allen-relationship histogram between two relations.

Relations are JSON-lines files (``repro.io``); single-attribute
relations may also be plain ``start end`` text files (auto-detected by
extension ``.txt``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from repro import __version__
from repro.core.executor import execute
from repro.core.planner import ALGORITHMS
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Relation
from repro.errors import ReproError
from repro.io import (
    load_intervals_text,
    load_relation,
    save_relation,
    save_result,
)
from repro.mapreduce.options import EXECUTORS
from repro.stats import human_count, human_seconds
from repro.workloads import (
    TRACE_PROFILES,
    SyntheticConfig,
    generate_relation,
    trains_relation,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for every ``repro`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-way interval joins on MapReduce (EDBT 2014 "
        "reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate synthetic intervals")
    gen.add_argument("--n", type=int, required=True, help="number of intervals")
    gen.add_argument("--t-min", type=float, default=0.0)
    gen.add_argument("--t-max", type=float, default=100_000.0)
    gen.add_argument("--len-min", type=float, default=1.0)
    gen.add_argument("--len-max", type=float, default=100.0)
    gen.add_argument(
        "--start-dist", default="uniform",
        choices=["uniform", "normal", "exponential", "zipf"],
    )
    gen.add_argument(
        "--length-dist", default="uniform",
        choices=["uniform", "normal", "exponential", "zipf"],
    )
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--name", default="R")
    gen.add_argument("-o", "--output", required=True)

    trace = sub.add_parser("trace", help="generate packet-train intervals")
    trace.add_argument(
        "--profile", required=True, choices=sorted(TRACE_PROFILES)
    )
    trace.add_argument("--gap-threshold", type=float, default=0.5)
    trace.add_argument("--target", type=int, default=None,
                       help="replicate the trains up to this count")
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("--name", default="T")
    trace.add_argument("-o", "--output", required=True)

    run = sub.add_parser("run", help="execute an interval join query")
    run.add_argument(
        "--relation", action="append", required=True, metavar="NAME=FILE",
        help="bind a relation name to a file (repeatable)",
    )
    run.add_argument(
        "--condition", action="append", required=True,
        metavar="'LEFT PRED RIGHT'",
        help="a join condition, e.g. 'R1 overlaps R2' (repeatable)",
    )
    run.add_argument(
        "--algorithm", default=None, choices=sorted(ALGORITHMS),
        help="override the planner's choice",
    )
    run.add_argument("--partitions", type=int, default=16)
    run.add_argument(
        "--executor", default=None, choices=EXECUTORS,
        help="MapReduce executor (default: $REPRO_EXECUTOR, then serial)",
    )
    run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker count for the parallel executors "
        "(default: $REPRO_WORKERS, then the CPU count)",
    )
    run.add_argument(
        "--partition-strategy", default="uniform",
        choices=["uniform", "equi_depth"],
    )
    run.add_argument(
        "--faults", default=None, metavar="SEED[:OPTS]",
        help="run under deterministic fault injection, e.g. '42' or "
        "'42:crash=0.3,corrupt=0.1' "
        "(default: $REPRO_FAULTS, then off)",
    )
    run.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="per-task retry budget "
        "(default: $REPRO_MAX_ATTEMPTS, then 3 with faults / 1 without)",
    )
    run.add_argument("--explain", action="store_true",
                     help="print the EXPLAIN plan (with cost-model "
                     "predictions) before running and the "
                     "predicted-vs-observed reconciliation after")
    run.add_argument("-o", "--output", default=None,
                     help="write output tuples as JSON lines")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record the run's span trace to PATH as JSONL "
                     "(what repro report reads)")
    run.add_argument("--profile", action="store_true",
                     help="run under the data-plane profiler: per-phase "
                     "driver CPU and memory watermarks, in-process task "
                     "CPU")
    run.add_argument("--progress", action="store_true",
                     help="render a live progress/ETA ticker on stderr "
                     "while the query runs (collects live telemetry)")
    run.add_argument("--serve-status", type=int, default=None,
                     metavar="PORT",
                     help="serve live run status over HTTP on this port "
                     "(0 picks a free one): /metrics Prometheus text of "
                     "the spans closed so far, /progress JSON (collects "
                     "live telemetry, as --progress does)")

    explain = sub.add_parser(
        "explain",
        help="render the physical plan and cost predictions for a query "
        "without running it",
    )
    explain.add_argument(
        "--relation", action="append", default=None, metavar="NAME=FILE",
        help="bind a relation name to a file (repeatable); omit to "
        "explain the plan shape without data-dependent predictions",
    )
    explain.add_argument(
        "--condition", action="append", required=True,
        metavar="'LEFT PRED RIGHT'",
        help="a join condition, e.g. 'R1 overlaps R2' (repeatable)",
    )
    explain.add_argument(
        "--algorithm", default=None, choices=sorted(ALGORITHMS),
        help="override the planner's choice",
    )
    explain.add_argument("--partitions", type=int, default=16)
    explain.add_argument(
        "--prune", action="store_true",
        help="for hybrid queries, prefer PASM over All-Seq-Matrix",
    )
    explain.add_argument(
        "--exact", action="store_true",
        help="run the plan's map and shuffle for exact predictions "
        "(requires --relation bindings)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the plan as JSON instead of the printable rendering",
    )

    report = sub.add_parser(
        "report",
        help="print the run report and metric summary of a recorded "
        "JSONL span trace",
        # No prefixes: the removed ``--metrics SNAPSHOT`` input must not
        # resolve to ``--metrics-out`` and overwrite the snapshot.
        allow_abbrev=False,
    )
    report.add_argument("trace", help="JSONL span trace (repro run "
                        "--trace T.jsonl)")
    report.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the metric families as JSON "
                        "(*.prom writes Prometheus text exposition instead)")
    report.add_argument("--html", default=None, metavar="PATH",
                        help="write the self-contained HTML dashboard here")
    report.add_argument("--title", default=None,
                        help="dashboard title (default: the trace path)")
    report.add_argument("--profile", action="store_true",
                        help="print the data-plane profile summary (of a "
                        "trace recorded by a profiled run)")

    hist = sub.add_parser(
        "histogram", help="Allen-relationship histogram of two relations"
    )
    hist.add_argument("left")
    hist.add_argument("right")

    return parser


def _load(path: str, name: str) -> Relation:
    if path.endswith(".txt"):
        return load_intervals_text(path, name)
    return load_relation(path, name)


def _parse_condition(text: str):
    parts = text.split()
    if len(parts) != 3:
        raise ReproError(
            f"condition {text!r} must be 'LEFT PREDICATE RIGHT'"
        )
    return tuple(parts)


def _cmd_generate(args: argparse.Namespace) -> int:
    relation = generate_relation(
        args.name,
        SyntheticConfig(
            n=args.n,
            start_dist=args.start_dist,
            length_dist=args.length_dist,
            t_range=(args.t_min, args.t_max),
            length_range=(args.len_min, args.len_max),
            seed=args.seed,
        ),
    )
    count = save_relation(relation, args.output)
    print(f"wrote {count} intervals to {args.output}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    relation = trains_relation(
        args.name,
        TRACE_PROFILES[args.profile],
        gap_threshold=args.gap_threshold,
        target=args.target,
        seed=args.seed,
    )
    count = save_relation(relation, args.output)
    print(
        f"wrote {count} packet trains (profile {args.profile}) to "
        f"{args.output}"
    )
    return 0


def _load_bindings(bindings) -> Dict[str, Relation]:
    data: Dict[str, Relation] = {}
    for binding in bindings or ():
        if "=" not in binding:
            raise ReproError(f"--relation {binding!r} must be NAME=FILE")
        name, path = binding.split("=", 1)
        data[name] = _load(path, name)
    return data


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.explain import explain_query

    data = _load_bindings(args.relation)
    query = IntervalJoinQuery.parse(
        [_parse_condition(c) for c in args.condition]
    )
    explained = explain_query(
        query,
        data or None,
        algorithm=args.algorithm,
        num_partitions=args.partitions,
        prune=args.prune,
        exact=args.exact,
    )
    if args.json:
        print(json.dumps(explained.as_dict(), indent=2, sort_keys=True))
    else:
        print(explained.render())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    data = _load_bindings(args.relation)
    query = IntervalJoinQuery.parse(
        [_parse_condition(c) for c in args.condition]
    )
    # Validate the run options before anything else, as execute() does
    # before planning: a bad value fails even when the query is provably
    # empty.
    from repro.mapreduce.options import resolve_options

    options = resolve_options(
        args.executor, args.workers, args.faults, args.max_attempts
    )
    if args.explain:
        from repro.obs.explain import explain_query

        explained = explain_query(
            query,
            data,
            algorithm=args.algorithm,
            num_partitions=args.partitions,
            partition_strategy=args.partition_strategy,
        )
        print(explained.render())
        print()
    live = args.progress or args.serve_status is not None
    observer = status_server = progress = None
    try:
        if args.serve_status is not None:
            from repro.obs.live import StatusServer

            # Bind first: a taken port has to end the run before a
            # trace file opens.
            try:
                status_server = StatusServer(port=args.serve_status)
            except OSError as exc:
                raise ReproError(
                    f"cannot serve status on port {args.serve_status}: {exc}"
                ) from exc
        if args.explain or args.trace or args.profile or live:
            from repro.obs.recorder import TraceRecorder
            from repro.obs.sinks import JsonlSink

            sinks = [JsonlSink(args.trace)] if args.trace else []
            observer = TraceRecorder(*sinks, profile=args.profile, live=live)
        if status_server is not None:
            status_server.recorder = observer
            status_server.start()
            print(
                f"status:     serving {status_server.url} "
                "(/metrics, /progress)",
                file=sys.stderr,
                flush=True,
            )
        if args.progress:
            from repro.obs.live import ProgressPrinter

            progress = ProgressPrinter(observer.live).start()
        result = execute(
            query,
            data,
            algorithm=args.algorithm,
            num_partitions=args.partitions,
            partition_strategy=args.partition_strategy,
            executor=options.executor,
            workers=options.workers,
            observer=observer,
            faults=args.faults,
            max_attempts=args.max_attempts,
        )
    finally:
        if observer is not None:
            observer.close()
        if progress is not None:
            progress.close()
        if status_server is not None:
            status_server.close()
    m = result.metrics
    print(f"query:      {query}")
    print(f"class:      {query.query_class.name}")
    print(f"algorithm:  {m.algorithm}")
    print(f"executor:   {options.executor} ({options.workers} workers)")
    print(f"tuples:     {len(result)}")
    print(f"cycles:     {m.num_cycles}")
    print(f"shuffled:   {human_count(m.shuffled_records)} pairs")
    print(f"replicated: {human_count(m.replicated_intervals)} intervals")
    print(f"modelled:   {human_seconds(m.simulated_seconds)}")
    if m.tasks_failed or m.tasks_retried:
        print(
            f"faults:     {m.tasks_failed} failed, {m.tasks_retried} retried"
        )
    if args.explain:
        from repro.obs.explain import reconciliation_from_spans

        for reconciliation in reconciliation_from_spans(observer.spans):
            print()
            print(reconciliation.render())
    if args.output:
        save_result(result, args.output)
        print(f"output:     {args.output}")
    if args.trace:
        print(f"trace:      {args.trace}")
    if observer is not None and observer.profiler is not None:
        from repro.obs.profile import data_plane_summary

        print()
        print(data_plane_summary(observer.spans, observer.metrics))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import render_dashboard
    from repro.obs.metrics import fold_spans
    from repro.obs.profile import data_plane_summary
    from repro.obs.report import RunReport
    from repro.obs.sinks import load_spans_jsonl_tolerant

    spans, warnings = load_spans_jsonl_tolerant(args.trace)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    title = args.title or f"repro trace: {args.trace}"
    jobs = [span for span in spans if span.kind == "job"]
    print(f"trace:      {args.trace}")
    print(f"spans:      {len(spans)} ({len(jobs)} jobs)")
    # Older traces (or partial ones) may predate plan/reconciliation
    # spans or the attributes a metric family is folded from — report
    # what exists instead of failing.
    try:
        report = RunReport.from_spans(spans)
    except Exception as exc:
        print(
            f"warning: run report failed ({exc}); skipping",
            file=sys.stderr,
        )
    else:
        print()
        print(report.render())
        if not report.reconciliations:
            print("plan:       no plan spans in trace; reconciliation skipped")
    metrics, skipped = fold_spans(spans)
    if skipped:
        print(
            "metrics:    trace predates the span attributes of "
            + ", ".join(skipped)
            + "; skipped"
        )
    print()
    print(metrics.summary())
    if args.profile:
        print()
        print(data_plane_summary(spans, metrics))
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            if args.metrics_out.endswith(".prom"):
                handle.write(metrics.to_prometheus())
            else:
                handle.write(metrics.to_json())
                handle.write("\n")
        print(f"metrics:    {args.metrics_out}")
    if args.html:
        try:
            page = render_dashboard(spans, metrics, title=title)
        except Exception as exc:
            print(
                f"warning: dashboard rendering failed ({exc}); skipping",
                file=sys.stderr,
            )
        else:
            with open(args.html, "w", encoding="utf-8") as handle:
                handle.write(page)
            print(f"dashboard:  {args.html}")
    return 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    from repro.analysis import allen_histogram

    left = _load(args.left, "L")
    right = _load(args.right, "R")
    histogram = allen_histogram(
        left.intervals(left.attributes[0]),
        right.intervals(right.attributes[0]),
    )
    total = sum(histogram.values())
    for name in sorted(histogram, key=histogram.get, reverse=True):
        count = histogram[name]
        if count:
            print(f"{name:15s} {count:12d}  ({100.0 * count / total:5.2f}%)")
    print(f"{'total':15s} {total:12d}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "trace": _cmd_trace,
    "run": _cmd_run,
    "explain": _cmd_explain,
    "report": _cmd_report,
    "histogram": _cmd_histogram,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
