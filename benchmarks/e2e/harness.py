"""The repo benchmark: whole interval-join queries, end to end, with an
outside-in layer table and a noise floor.

One run = one workload = one process (started with every ``REPRO_*``
variable removed and ``PYTHONHASHSEED=0`` by a launcher that exits only
when the run and every process it started have ended)::

    set-up (seeded generation, JSONL save/load, pool start, warm-up query)
      -> untraced timed loop of whole queries       (--trace 0: end-to-end)
      -> traced pass: one query under TraceRecorder,
         probes into every layer, knob arms         (--trace 1: per-layer)
      -> correctness verdict, spans.jsonl, one JSON result line

Without ``--trace`` both halves run and the full document (every metric
with unit, direction, bound, sample count and quartiles) is written to
``--out``.  Without ``--workload`` all four workloads run, each in its
own process, into one document that ``compare.py`` reads.  See
``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run leaves behind goes here (git-ignored).
OUT_DIR = ROOT / ".bench_e2e"
MANIFEST = ROOT / "BENCHMARK.json"

from calibrate import NOMINAL_KERNEL_S, kernel
from layers import LAYER_METRICS, SpanLog, probe_layers, runner_metrics
from workloads import (
    BY_NAME,
    E2E_BY_NAME,
    END_TO_END,
    QUICK_SCALE,
    WORKLOADS,
    Metric,
    Workload,
    build_query,
    generate_data,
    run_query,
)

#: ``--seconds`` when not given: BENCHMARK.json's ``run_seconds``.
DEFAULT_SECONDS = 10.0
#: Rounds of (generate + save + load + pool start) behind ``setup_s``.
SETUP_ROUNDS = 3
#: Untraced queries a ``--trace 1`` run times for its own noise floor.
BASELINE_REPS = 2
#: Calibration-kernel calls before each query of a loop (0.13 s each on
#: the quiet host).  The host factor is their median over the run, and
#: its own noise falls with the root of their number.
KERNEL_CALLS = 3
#: Timed queries per knob arm (informational; the run budget allows one).
ARM_REPS = 1


class BenchmarkError(Exception):
    """The benchmark itself cannot run (not: a query gave a wrong answer)."""


# ----------------------------------------------------------------------
# Hermetic process environment.
# ----------------------------------------------------------------------

def hermetic_env() -> Dict[str, str]:
    """The environment a run gets.  No ``REPRO_*`` knob leaks in, string
    hashing is fixed (set and dict order of str keys repeat run to run),
    and worker processes can import ``repro`` however they are started."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    search = env.get("PYTHONPATH", "").split(os.pathsep)
    if str(SRC) not in search:
        env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in search if p])
    return env


#: Seconds a process the run left behind gets to end by itself.
ORPHAN_GRACE_S = 10.0


def own_children() -> List[int]:
    """Pids of this process's direct children, zombies included."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            found.append(int(entry))
    return found


def run_contained(command: Sequence[str], env: Dict[str, str]) -> int:
    """Run ``command`` and return its exit status only when it *and every
    process it started* have ended.

    The run itself joins its worker pool, but ``multiprocessing``'s
    resource tracker (started for the ``processes`` executor) only ends
    when it sees its parent's pipe close, that is shortly *after* the
    run's process is gone.  This process therefore becomes the subreaper
    of its descendants: whatever the run orphans is re-parented here,
    waited for, and killed if it outstays ``ORPHAN_GRACE_S``.
    """
    import ctypes
    import signal

    PR_SET_CHILD_SUBREAPER = 36
    if ctypes.CDLL(None, use_errno=True).prctl(
        PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
    ) != 0:
        raise BenchmarkError("cannot become the subreaper of the run's processes")

    def terminated(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    child = subprocess.Popen(list(command), env=env)
    status = 1
    try:
        status = child.wait()
    finally:
        deadline = time.monotonic() + ORPHAN_GRACE_S
        if child.returncode is None:  # this process is being stopped
            child.kill()
            child.wait()
            deadline = time.monotonic()
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # no child left, orphan or otherwise
            if pid:
                continue
            if time.monotonic() > deadline:
                status = status or 3  # a leak is a failed run
                for orphan in own_children():
                    print(f"killing left-over process {orphan}", file=sys.stderr)
                    try:
                        os.kill(orphan, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.005)
    return status


def host_stamp() -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set.  ``VmHWM`` rather than
    ``ru_maxrss``: the latter survives ``exec`` and so starts at the
    *launching* process's peak, which is not ours to report."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def own_shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------

def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, min, max and n.  No tail percentile: a run
    holds far fewer than the 20 samples one would need."""
    median = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {
        "value": median,
        "n": len(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "iqr_frac": (q3 - q1) / median if median else 0.0,
    }


def entry(metric: Metric, samples: Sequence[float]) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "unit": metric.unit, "better": metric.better, "bound": metric.bound,
    }
    out.update(summarize(samples))
    return out


# ----------------------------------------------------------------------
# Correctness.
# ----------------------------------------------------------------------

def tuple_digest(result) -> str:
    import numpy as np

    ids = np.asarray(result.tuple_ids(), dtype=np.int64)
    return hashlib.blake2b(ids.tobytes(), digest_size=16).hexdigest()


class Checker:
    """Counts queries attempted and failed.

    A query fails when it raises, fails ``validate_result``, or differs
    from the run's first query in tuple count, ``tuple_ids()`` digest or
    any exact metric — and, at ``--seed 0`` and full size, from the
    values pinned in ``workloads.py``.
    """

    def __init__(self, data, pinned, log: SpanLog) -> None:
        self.data = data
        self.pinned = pinned
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.first: Optional[Dict[str, Any]] = None
        self.failures: List[str] = []
        #: seconds ``validate_result`` took on the run's first result.
        self.validate_s = 0.0
        #: the span of the latest query that ran.
        self.last_query = None

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {why}")
        print(f"FAILED {label}: {why}", file=sys.stderr)

    def run(self, label: str, query_fn: Callable[[], Any]):
        """Run one query (span ``query``) and check it (span ``check``);
        returns ``(result, seconds)`` or ``(None, 0)``."""
        from repro.errors import ReproError

        self.attempted += 1
        gc.collect()
        try:
            with self.log.span("query", label=label) as span:
                result = query_fn()
        except ReproError as exc:
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            return None, 0.0
        self.last_query = span
        seconds = span.duration
        with self.log.span("check", label=label):
            why = self.verdict(result)
        if why is not None:
            self.fail(label, why)
            return None, 0.0
        return result, seconds

    def verdict(self, result) -> Optional[str]:
        from repro.core.validation import validate_result
        from repro.errors import ReproError

        seen = {
            "tuples": len(result),
            "digest": tuple_digest(result),
            "shuffled_records": result.metrics.shuffled_records,
            "max_reducer_load": result.metrics.max_reducer_load,
            "modelled_cluster_s": result.metrics.simulated_seconds,
        }
        if self.first is not None:
            if seen != self.first:
                return f"differs from the first query: {seen} != {self.first}"
            return None
        started = time.perf_counter()
        try:
            validate_result(result, self.data)
        except ReproError as exc:
            return f"validate_result: {exc}"
        self.validate_s = time.perf_counter() - started
        if self.pinned is not None and seen != vars(self.pinned):
            return f"differs from the pinned seed-0 values: {seen}"
        self.first = seen
        return None


def reference_check(workload: Workload, query, seed: int, checker: Checker) -> None:
    """The same query, algorithm and executor on inputs small enough for
    the brute-force oracle: the result must equal ``reference_join``."""
    from repro import reference_join
    from repro.core.validation import assert_equivalent
    from repro.errors import ReproError

    small = workload.reference_sized()
    data = generate_data(small, seed)
    checker.attempted += 1
    with checker.log.span("check.reference_join", rows=small.input_rows):
        try:
            assert_equivalent(
                run_query(small, query, data), reference_join(query, data)
            )
        except ReproError as exc:
            checker.fail("reference", f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Set-up.
# ----------------------------------------------------------------------

def set_up(workload: Workload, query, seed: int, rounds: int,
           scratch: Path, yardstick: List[float], log: SpanLog):
    """Bring the workload from nothing to ready-to-query, ``rounds``
    times over, and return the data of the last round with each round's
    seconds and the pool start-up seconds.

    A round is: generate the relations from the seed, write them as
    JSON lines, read them back (the queries run on what was *read*), and
    — under the processes executor — start a cold worker pool.
    """
    from repro.io import load_relation, save_relation
    from repro.mapreduce import shutdown_worker_pools

    tiny = workload.reference_sized()
    tiny_data = generate_data(tiny, seed)
    round_s: List[float] = []
    pool_s: List[float] = []
    data = None
    for index in range(rounds):
        data = None
        gc.collect()
        with log.span("calibrate"):
            yardstick.append(kernel())
        with log.span("setup.round", round=index) as whole:
            with log.span("setup.generate", rows=workload.input_rows):
                generated = generate_data(workload, seed)
            with log.span("setup.save_relation"):
                for name, relation in generated.items():
                    save_relation(relation, str(scratch / f"{name}.jsonl"))
            with log.span("setup.load_relation"):
                data = {
                    name: load_relation(str(scratch / f"{name}.jsonl"), name)
                    for name in generated
                }
        seconds = whole.duration
        if any(data[n].rows != generated[n].rows for n in generated):
            raise BenchmarkError("relations read back differ from those written")
        del generated
        if workload.executor == "processes":
            # What a cold pool adds to a first query: the same tiny
            # query on no pool, then on the pool it left behind.
            shutdown_worker_pools()
            with log.span("setup.pool_start.cold") as cold:
                run_query(tiny, query, tiny_data)
            with log.span("setup.pool_start.warm") as warm:
                run_query(tiny, query, tiny_data)
            pool_s.append(max(0.0, cold.duration - warm.duration))
            seconds += pool_s[-1]
        round_s.append(seconds)
    return data, round_s, (statistics.median(pool_s) if pool_s else 0.0)


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------

def query_loop(label: str, run: Callable[..., Any], checker: Checker,
               yardstick: List[float], min_reps: int,
               seconds: float) -> List[float]:
    """A closed loop of one client: whole queries, one after the other,
    for at least ``min_reps`` queries and ``seconds`` seconds.  Returns
    the raw seconds of each; calibration-kernel calls go in between
    (their seconds into ``yardstick``) and each result is checked and
    dropped outside the timed region."""
    samples: List[float] = []
    log = checker.log
    started = time.perf_counter()
    with log.span(label):
        while (
            len(samples) < min_reps
            or time.perf_counter() - started < seconds
        ):
            with log.span("calibrate"):
                yardstick += [kernel() for _ in range(KERNEL_CALLS)]
            result, query_s = checker.run(f"{label} {len(samples)}", run)
            if result is None:
                break
            samples.append(query_s)
            del result
    return samples


def run_workload(args) -> int:
    base = BY_NAME[args.workload]
    if base.workers > (os.cpu_count() or 1):
        raise BenchmarkError(
            f"{base.name} needs {base.workers} workers, this host has "
            f"{os.cpu_count()} CPUs"
        )
    if not (SRC / "repro").is_dir():
        raise BenchmarkError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: users pay it on every cold start)

    import_s = time.perf_counter() - started
    from repro.mapreduce import shutdown_worker_pools

    scale = QUICK_SCALE if args.quick else args.scale
    workload = base.scaled(scale)
    untraced = args.trace in (None, 0)
    traced = args.trace in (None, 1)

    shm_before = own_shm_segments()
    out_dir = OUT_DIR / workload.name
    scratch = out_dir / f"data-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    log = SpanLog(f"{workload.name}/seed{args.seed}")
    query = build_query(workload)
    e2e: Dict[str, Dict[str, Any]] = {}
    layer: Dict[str, float] = {}
    yardstick: List[float] = []
    samples: List[float] = []
    try:
        with log.span("setup"):
            rounds = 1 if args.quick or not untraced else SETUP_ROUNDS
            data, round_s, pool_start_s = set_up(
                workload, query, args.seed, rounds, scratch, yardstick, log
            )
            checker = Checker(
                data, workload.pinned if args.seed == 0 else None, log
            )
            #: the workload's query on the data just read; keyword
            #: arguments flip execute() knobs.
            run = functools.partial(run_query, workload, query, data)
            warm, warmup_s = checker.run("warm-up", run)
        ready = warm is not None
        del warm
        reference_check(workload, query, args.seed, checker)

        if ready and untraced:
            samples = query_loop(
                "timed_loop", run, checker, yardstick,
                min_reps=1 if args.quick else workload.min_reps,
                seconds=0.0 if args.quick else args.seconds,
            )
            rss = peak_rss_mb()
        elif ready:
            # A traced-only run still needs an untraced yardstick.
            samples = query_loop(
                "baseline_loop", run, checker, yardstick,
                min_reps=1 if args.quick else BASELINE_REPS, seconds=0.0,
            )
        # How much slower than the nominal host this run's host was.
        host_factor = statistics.median(yardstick) / NOMINAL_KERNEL_S

        if untraced and samples and checker.first is not None:
            first = checker.first
            nominal = [s / host_factor for s in samples]
            e2e["query_wall_s"] = entry(E2E_BY_NAME["query_wall_s"], nominal)
            e2e["query_wall_s"]["raw_samples"] = samples
            e2e["input_rows_per_s"] = entry(
                E2E_BY_NAME["input_rows_per_s"],
                [workload.input_rows / s for s in nominal],
            )
            e2e["output_tuples_per_s"] = entry(
                E2E_BY_NAME["output_tuples_per_s"],
                [first["tuples"] / s for s in nominal],
            )
            e2e["setup_s"] = entry(
                E2E_BY_NAME["setup_s"],
                [(import_s + s + warmup_s) / host_factor for s in round_s],
            )
            e2e["setup_s"]["raw_parts"] = {
                "import_s": import_s,
                "round_s": round_s,
                "pool_start_s": pool_start_s,
                "warmup_query_s": warmup_s,
            }
            e2e["peak_rss_mb"] = entry(E2E_BY_NAME["peak_rss_mb"], [rss])
            for name in ("shuffled_records", "max_reducer_load",
                         "modelled_cluster_s"):
                e2e[name] = entry(E2E_BY_NAME[name], [first[name]])

        if traced and samples:
            layer = traced_pass(
                workload, query, data, run, samples, pool_start_s,
                checker, scratch,
            )
            if layer:
                layer["noise.kernel_s"] = statistics.median(yardstick)
                layer["noise.host_factor"] = host_factor
    finally:
        shutdown_worker_pools()
        shutil.rmtree(scratch, ignore_errors=True)

    if layer and workload.executor == "processes":
        import resource

        layer["runner.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
    leaked = sorted(own_shm_segments() - shm_before)
    if leaked:
        checker.fail("exit", f"shared-memory segments left behind: {leaked}")
    if untraced:
        e2e["queries_failed"] = entry(
            E2E_BY_NAME["queries_failed"], [checker.failed]
        )
        e2e["queries_failed"]["out_of"] = checker.attempted
    correct = (
        checker.failed == 0
        and (not untraced or "query_wall_s" in e2e)
        and (not traced or bool(layer))
    )
    document = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "quick": args.quick,
        "scale": scale,
        "comparable": not args.quick and args.scale == 1,
        "input_rows": workload.input_rows,
        "algorithm": workload.algorithm,
        "executor": workload.executor,
        "workers": workload.workers,
        "host": host_stamp(),
        "host_factor": host_factor,
        "kernel_s": summarize(yardstick),
        "correct": correct,
        "queries_attempted": checker.attempted,
        "queries_failed": checker.failed,
        "failures": checker.failures,
        "result": checker.first,
        "end_to_end": e2e,
        "per_layer": {
            m.name: {"value": layer[m.name], "unit": m.unit,
                     "better": m.better, "moves": m.help}
            for m in LAYER_METRICS if m.name in layer
        },
    }
    log.write(str(out_dir / "spans.jsonl"))
    out_path = Path(args.out) if args.out else out_dir / "result.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    metrics: Dict[str, Dict[str, Any]] = {}
    for m in END_TO_END:
        # failed/attempted below carry queries_failed: the manifest takes
        # no metric that is 0 on every healthy run.
        if m.name != "queries_failed" and m.name in e2e:
            metrics[m.name] = {"value": e2e[m.name]["value"], "unit": m.unit}
    for m in LAYER_METRICS:
        if m.name in layer:
            metrics[m.name] = {"value": layer[m.name], "unit": m.unit}
    print(f"# {workload.name} seed={args.seed} -> {out_path}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def traced_pass(workload: Workload, query, data, run: Callable[..., Any],
                samples, pool_start_s, checker: Checker,
                scratch: Path) -> Dict[str, float]:
    """Every per-layer metric: the in-situ split of one traced query,
    the probes, the arms, and the untraced loop's own spread."""
    from repro import execute
    from repro.obs import TraceRecorder

    log = checker.log
    out: Dict[str, float] = {m.name: 0.0 for m in LAYER_METRICS}

    recorder = TraceRecorder()
    result, traced_s = checker.run("traced", lambda: run(observer=recorder))
    recorder.close()
    if result is None:
        return {}
    log.adopt(recorder, checker.last_query)
    out.update(runner_metrics(recorder))
    out["obs.traced_wall_s"] = traced_s
    out["obs.traced_overhead_frac"] = traced_s / statistics.median(samples) - 1
    out["runner.pool_start_s"] = pool_start_s
    out["validation.validate_s"] = checker.validate_s
    del recorder

    with log.span("probes"):
        out.update(probe_layers(workload, query, data, result, str(scratch), log))
    del result
    if out["local.join_all_s"] > 0:
        out["runner.reduce_amplification"] = (
            out["runner.reduce_phase_s"] / out["local.join_all_s"]
        )

    # Arms: the same query with one knob of execute() flipped.  An arm
    # whose knob a later change removed is absent (reads 0), not failed.
    knobs = inspect.signature(execute).parameters

    def arm(label: str, **knob: Any) -> float:
        seconds: List[float] = []
        with log.span(f"arm.{label}"):
            for index in range(ARM_REPS):
                rep, rep_s = checker.run(
                    f"arm {label} {index}", lambda: run(**knob)
                )
                if rep is None:
                    return 0.0
                seconds.append(rep_s)
                del rep
        return statistics.median(seconds)

    if "data_plane" in knobs:
        # Which plane each job really ran on comes from one untimed
        # traced run.  When every job fell back the arm would only time
        # the default plane again, so it is skipped and reads 0.
        recorder = TraceRecorder()
        with log.span("arm.columnar.traced"):
            checker.run(
                "arm columnar traced",
                lambda: run(data_plane="columnar", observer=recorder),
            )
        recorder.close()
        planes = [job.data_plane for job in recorder.job_results]
        del recorder
        if planes:
            out["arm.columnar.fell_back"] = (
                sum(plane != "columnar" for plane in planes) / len(planes)
            )
        if "columnar" in planes:
            out["arm.columnar.query_wall_s"] = arm(
                "columnar", data_plane="columnar"
            )
    if "executor" in knobs and workload.executor != "threads":
        out["arm.threads.query_wall_s"] = arm(
            "threads", executor="threads", workers=min(2, os.cpu_count() or 1)
        )

    spread = summarize(samples)
    out["noise.query_wall_iqr_frac"] = spread["iqr_frac"]
    out["noise.query_wall_min_s"] = spread["min"]
    out["noise.query_wall_max_s"] = spread["max"]
    out["noise.samples"] = float(spread["n"])
    return out


# ----------------------------------------------------------------------
# All workloads, --list, the manifest check.
# ----------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in a process of its own, merged into one document."""
    OUT_DIR.mkdir(exist_ok=True)
    runs: Dict[str, Any] = {}
    status = 0
    for workload in WORKLOADS:
        part = OUT_DIR / workload.name / f"part-{os.getpid()}.json"
        command = [
            sys.executable, str(HERE / "harness.py"),
            "--workload", workload.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--scale", str(args.scale),
            "--out", str(part),
        ]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        status = status or done.returncode
        if part.exists():
            runs[workload.name] = json.loads(part.read_text(encoding="utf-8"))
            part.unlink()
    document = {
        "benchmark": "e2e",
        "seed": args.seed,
        "quick": args.quick,
        "scale": QUICK_SCALE if args.quick else args.scale,
        "comparable": all(run["comparable"] for run in runs.values())
        and len(runs) == len(WORKLOADS),
        "runs": runs,
    }
    out_path = Path(args.out) if args.out else OUT_DIR / "set.json"
    out_path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    for name, run in runs.items():
        wall = run["end_to_end"].get("query_wall_s", {})
        print(
            f"{name:22s} correct={run['correct']} "
            f"failed={run['queries_failed']}/{run['queries_attempted']} "
            f"query_wall_s={wall.get('value', float('nan')):.4f} "
            f"(n={wall.get('n', 0)}, iqr {wall.get('iqr_frac', 0):.1%})"
        )
    print(f"-> {out_path}")
    if args.quick:
        status = status or check_manifest()
    return status


def check_manifest() -> int:
    """BENCHMARK.json and the tables in this directory name the same
    workloads and metrics; a drift is an error."""
    if not MANIFEST.exists():
        return 0
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in manifest["workloads"]] != [w.name for w in WORKLOADS]:
        problems.append("workloads differ")
    ours = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END if m.name != "queries_failed"
    ]
    if manifest["end_to_end"] != ours:
        problems.append("end_to_end differs")
    ours = [{"name": m.name, "unit": m.unit, "better": m.better}
            for m in LAYER_METRICS]
    if manifest["per_layer"] != ours:
        problems.append("per_layer differs")
    for problem in problems:
        print(f"BENCHMARK.json: {problem}", file=sys.stderr)
    return 1 if problems else 0


def list_metrics() -> int:
    print("workloads")
    for w in WORKLOADS:
        print(f"  {w.name:22s} {w.input_rows:>7d} rows  {w.algorithm}/"
              f"{w.executor}  {w.why}")
    print("end-to-end metrics (per workload)")
    for m in END_TO_END:
        kind = "exact within a seed" if m.exact else ""
        print(f"  {m.name:22s} {m.unit:8s} {m.better:6s} "
              f"bound {m.bound:<5} {kind:20s} {m.help}")
    print("per-layer metrics (traced pass; no bound) -> what each should move")
    for m in LAYER_METRICS:
        print(f"  {m.name:36s} {m.unit:6s} {m.better:6s} -> {m.help}")
    return check_manifest()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run this workload in this process "
                             "(default: all four, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="changes the generated inputs, nothing else")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="least length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default: both")
    parser.add_argument("--out", help="where the full JSON document goes")
    parser.add_argument("--list", action="store_true",
                        help="print every metric with unit, direction, bound")
    parser.add_argument("--quick", action="store_true",
                        help="self-test: 1/20 size, one rep; not comparable")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply row counts (marks the output "
                             "non-comparable)")
    parser.add_argument("--contained", action="store_true",
                        help=argparse.SUPPRESS)  # set by run_contained's caller
    args = parser.parse_args(argv)
    if args.list:
        return list_metrics()
    if args.scale <= 0:
        parser.error("--scale must be positive")
    try:
        if not args.workload:
            return run_all(args)
        if args.contained:
            return run_workload(args)
        # The run proper is a child with a hermetic environment; this
        # process only outlives it to see all of its processes end.
        passed = list(sys.argv[1:] if argv is None else argv)
        return run_contained(
            [sys.executable, str(HERE / "harness.py"), *passed, "--contained"],
            hermetic_env(),
        )
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
