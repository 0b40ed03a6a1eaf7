"""The engine/observability boundary, checked on the source tree.

The engine reports to one observer through one protocol
(:class:`repro.obs.recorder.Observer`) that can only *describe* a run —
open a span, close it, register a job result: no call lets an observer
ride inside a task, launch an attempt or wrap a dispatch, and the
machinery such calls needed (a heartbeat argument through the task
bodies, a manager queue, a frame sampler) stays out of ``src/``.
Nothing else of ``repro.obs`` may be visible from the engine, the
shuffle and the file system know nothing about observation at all, and
the object an unobserved run reports to holds no registry.  A sibling
case keeps ``IntervalTree`` — alive only
for the frozen benchmark's layer probes (ROADMAP item 3a) — off every
query path, another keeps "the pairs satisfying an Allen predicate" one
function (the pair kernel in ``intervals/sweep.py``, the only place a
predicate picks its windows; ``join_pairs`` is its adapter and nothing
in the package calls it), another the flagging decision (columns only,
stated once), another keeps the map side of ``core/algorithms``
written once (one mapper, in ``routing.py``), and the last keeps rows
off the whole-relation paths (``Row.interval`` only where a column is
built or a record form remains; payload ids resolved a column at a
time).  The knob inventory is pinned here too: one module reads the
environment, for the four run options and nothing else.  So is
reachability: every module of the package is imported from an entry
point (``repro.execute``, the CLI, the examples, the benchmarks) or is
listed with the reason it stays.  All of it is read off the AST, so a
convention cannot drift without a tier-1 failure.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.columnar.batch import ColumnValues
from repro.faults import ResolvedFaults
from repro.mapreduce.options import RunOptions
from repro.obs import MetricsRegistry
from repro.obs.recorder import NullRecorder, Observer, TraceRecorder

SRC = Path(repro.__file__).resolve().parent

#: Packages that make up the engine.
ENGINE = ("mapreduce", "columnar", "intervals", "core/algorithms")


def _modules(*packages):
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _imported(tree):
    """Every ``module`` / ``module.name`` an import statement names,
    wherever it stands (function bodies and TYPE_CHECKING included)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _names(tree):
    """Every identifier and attribute name the module mentions."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_engine_sees_only_the_observer_protocol():
    offending = [
        (str(path.relative_to(SRC)), name)
        for path, tree in _modules(*ENGINE)
        for name in _imported(tree)
        if (name == "repro.obs" or name.startswith("repro.obs."))
        and not (name + ".").startswith("repro.obs.recorder.")
    ]
    assert offending == []


@pytest.mark.parametrize("module", ["mapreduce/shuffle.py", "mapreduce/fs.py"])
def test_shuffle_and_file_system_take_no_observer(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    offending = [
        (node.name, arg.arg)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
        if arg.arg in ("observer", "profiler", "job")
    ]
    assert offending == []


def test_null_recorder_holds_no_registry():
    recorder = NullRecorder()
    assert not hasattr(recorder, "metrics")
    assert not any(
        isinstance(value, MetricsRegistry) for value in vars(recorder).values()
    )


#: Everything the engine may ask of an observer.
PROTOCOL = {"start_span", "end_span", "span", "record_job"}

#: What a recorder offers beside it — to whoever *reads* the run.
READER_SIDE = {"close", "find", "render"}


@pytest.mark.parametrize("observer", [Observer, TraceRecorder, NullRecorder])
def test_the_observer_protocol_only_describes_a_run(observer):
    public = {
        name
        for name, value in vars(observer).items()
        if callable(value) and not name.startswith("_")
    }
    if observer is TraceRecorder:
        assert READER_SIDE <= public
        public -= READER_SIDE
    assert public == PROTOCOL


def test_the_engine_calls_nothing_else_on_its_observer():
    """Whatever is called on a ``recorder`` / ``observer`` under the
    engine packages or ``core/`` is a protocol method — and each of the
    four has a caller."""
    called = {
        node.func.attr
        for path, tree in _modules("core", *ENGINE)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and getattr(
            node.func.value, "id", getattr(node.func.value, "attr", "")
        ) in ("recorder", "observer")
    }
    assert called == PROTOCOL


def test_no_telemetry_rides_inside_a_task():
    """What an observer would need to ride inside a task stays out:
    nothing named ``beat`` is passed, stored or read under
    ``mapreduce/``; no manager process and no frame sampler anywhere in
    ``src/``; and the collector pause — a stdlib workaround wherever
    telemetry needed it — is imported by the algorithm driver, the
    result's ``Row`` tuple build and the relation builder alone (all
    three build acyclic objects by the million)."""
    beats = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path, tree in _modules("mapreduce")
        for node in ast.walk(tree)
        if "beat" in (
            getattr(node, "arg", None),   # parameters and keywords
            getattr(node, "attr", None),
            getattr(node, "id", None),
        )
    ]
    assert beats == []

    for path, tree in _modules(""):
        assert not {"Manager", "_current_frames"} & _names(tree), path

    pausers = [
        path.relative_to(SRC).as_posix()
        for path, tree in _modules("")
        if any(name.startswith("repro.gc_pause") for name in _imported(tree))
    ]
    assert sorted(pausers) == [
        "core/algorithms/base.py", "core/results.py", "core/schema.py",
    ]


def test_the_map_side_is_written_once():
    """The fifteen-mapper fork cannot re-grow: under ``core/algorithms``
    the columnar protocol's mapper half is implemented by one class,
    ``map_columns`` exists only in ``routing.py`` (the mapper's and one
    per router), and no ``map`` method outside it spells out the
    Figure-1 project / split / replicate switch."""
    defined = {"encode_intervals": [], "encode_terms": [], "map_columns": []}
    switches = []
    for path, tree in _modules("core/algorithms"):
        module = path.name
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                node.name: node
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
            }
            if "kernel" not in methods:
                for name in defined:
                    if name in methods:
                        defined[name].append(f"{module}:{cls.name}")
            if "map" in methods and module != "routing.py":
                switches += [
                    f"{module}:{cls.name}.map"
                    for node in ast.walk(methods["map"])
                    if isinstance(node, ast.Attribute)
                    and node.attr in ("PROJECT", "SPLIT", "REPLICATE")
                ]
    assert defined["encode_intervals"] == ["routing.py:RoutedMapper"]
    assert defined["encode_terms"] == ["routing.py:RoutedMapper"]
    # The plane depends on a job's code only: no readiness gate survives.
    assert [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "columnar_ready" in path.read_text(encoding="utf-8")
    ] == []
    assert all(
        where.startswith("routing.py:") for where in defined["map_columns"]
    )
    assert len(defined["map_columns"]) <= 4
    assert switches == []


def test_the_reduce_side_is_written_once():
    """The reducer fork cannot re-grow: a reducer under ``core`` is a
    kernel and a formatter (``mapreduce.task.KernelReducer``) and has no
    ``reduce``.  No class restates materialisation, no reducer boxes its
    outputs into Python ints, and no reduce body asks which plane it is
    on."""
    reduces, restated, boxing = [], [], []
    for path, tree in _modules("core"):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                node.name for node in cls.body if isinstance(node, ast.FunctionDef)
            }
            where = f"{path.relative_to(SRC).as_posix()}:{cls.name}"
            if "reduce" in methods:
                reduces.append(where)
            if methods & {"columnar_outputs", "materialize_outputs"}:
                restated.append(where)
            if cls.name.endswith("Reducer") and "tolist" in _names(cls):
                boxing.append(where)
    assert reduces == []
    assert restated == []
    assert boxing == []

    plane_forks = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path, tree in _modules("")
        for node in ast.walk(tree)
        if "reduce_columns"
        in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))
        or (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and "ColumnValues" in _names(node.args[1])
        )
    ]
    assert plane_forks == []


def test_a_kernel_reducer_has_one_plane():
    """The engine has one data plane.  ``repro.mapreduce.task`` defines
    no records-plane reducer, context or mapper; a ``JobResult`` names no
    plane; no module but ``shuffle.py`` itself calls the per-pair
    ``shuffle(`` (it stays as ``columnar_shuffle``'s reference and the
    benchmark's probe); and nothing under ``src/`` still spells the
    older plane forms — no records group built from values, no plane
    gate or plane reason, no payload read per row, no gid resolved one
    at a time."""
    import repro.mapreduce.task as task
    from repro.mapreduce.job import JobResult

    assert not {"Reducer", "ReduceContext", "IdentityMapper"} & set(vars(task))
    assert "data_plane" not in {field.name for field in dataclasses.fields(JobResult)}
    shuffles = [
        f"{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "shuffle.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"(?<![\w.])shuffle\(", line)
    ]
    assert shuffles == []

    gone = re.compile(r"of_records\(|job_columnar_gate|data_plane_reason|_row_of|store\.value\(")
    spelled = [
        f"{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for match in gone.finditer(line)
        # ``Relation.of_records``, defined in ``core/schema.py``, stays.
        if not (
            match.group() == "of_records("
            and (path.name == "schema.py" or "Relation.of_records" in line)
        )
    ]
    assert spelled == []


def _calls(tree, attr):
    """``(enclosing function, receiver)`` of every ``<receiver>.attr(...)``
    call in the module; the function is ``""`` at module level."""

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inside = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = child.name
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == attr
            ):
                yield function, child.func.value
            yield from walk(child, inside)

    return list(walk(tree, ""))


#: Where ``core/`` and ``columnar/`` may still read a row's interval one
#: row at a time: module -> the functions allowed to (``None``: any).
ROW_INTERVAL_SITES = {
    # The column build itself.
    "core/schema.py": None,
    # ``RowView``'s records form, the routers' reference; ``targets``: a
    # multi-attribute relation's further grid terms.
    "core/algorithms/routing.py": {"interval_of", "targets"},
    # ``LocalJoiner.join`` over rows, and rows no relation stands behind.
    "core/local.py": {"attribute_columns"},
    # Oracles.
    "core/validation.py": None,
    "core/reference.py": None,
}


def test_rows_are_read_as_columns():
    """Whole-relation readers go through ``Relation.columns``: under
    ``core/`` and ``columnar/`` a row's ``.interval(`` is called only at
    the sites above — ``base.py`` (partitioning) and ``tuning.py``
    (profiling) have none — and no payload id is resolved one at a time
    (``store.value(``): reducers ``take`` a column."""
    offending = []
    for path, tree in _modules("core", "columnar"):
        relative = path.relative_to(SRC).as_posix()
        allowed = ROW_INTERVAL_SITES.get(relative, set())
        offending += [
            f"{relative}:{function}"
            for function, _ in _calls(tree, "interval")
            if allowed is not None and function not in allowed
        ]
    assert offending == []
    assert "core/algorithms/base.py" not in ROW_INTERVAL_SITES
    assert "core/tuning.py" not in ROW_INTERVAL_SITES

    one_at_a_time = [
        path.relative_to(SRC).as_posix()
        for path, tree in _modules("")
        for _, receiver in _calls(tree, "value")
        if "store" in (getattr(receiver, "id", None), getattr(receiver, "attr", None))
    ]
    assert one_at_a_time == []


def test_interval_tree_stays_off_every_query_path():
    allowed = {"intervals/__init__.py", "intervals/tree.py"}
    offending = []
    for path, tree in _modules(""):
        relative = path.relative_to(SRC).as_posix()
        if relative in allowed:
            continue
        if "IntervalTree" in _names(tree) or any(
            "IntervalTree" in name or "intervals.tree" in name
            for name in _imported(tree)
        ):
            offending.append(relative)
    assert offending == []


def test_the_pair_kernel_is_written_once():
    """The item-kernel fork cannot re-grow: ``join_pairs`` is the frozen
    benchmark's entry point, not the engine's; ``sweep.py`` holds no
    registry and boxes no ``Interval``; a predicate is mapped to its
    window kind in one function; and the cascade's step reducer reads
    rows only as columns (``local.attribute_columns``) and conditions
    only as ``holds_columns`` masks."""
    home = {"intervals/__init__.py", "intervals/sweep.py"}
    join_pairs_users = [
        path.relative_to(SRC).as_posix()
        for path, tree in _modules("")
        if "join_pairs" in _names(tree)
        or any(name.endswith(".join_pairs") for name in _imported(tree))
    ]
    assert [path for path in join_pairs_users if path not in home] == []

    sweep = ast.parse((SRC / "intervals/sweep.py").read_text(encoding="utf-8"))
    assert not {
        name
        for name in _imported(sweep)
        if name == "bisect" or name.startswith("repro.intervals.interval")
    }
    assert "KERNELS" not in _names(sweep)
    assert not hasattr(ColumnValues, "items")

    kinds = {"STARTING_AFTER", "ENDING_BEFORE"}
    traits = {
        "is_colocation", "is_sequence",
        "enforces_left_first", "enforces_right_first",
    }
    choosers = [
        f"{path.relative_to(SRC).as_posix()}:{function.name}"
        for path, tree in _modules("")
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and kinds & _names(function)
        and traits & _names(function)
    ]
    assert choosers == ["intervals/sweep.py:window_kind"]

    cascade = ast.parse(
        (SRC / "core/algorithms/cascade.py").read_text(encoding="utf-8")
    )
    assert not [
        node.lineno
        for node in ast.walk(cascade)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("join_pairs", "interval", "holds")
    ]


def test_the_flagging_decision_runs_on_columns_and_is_written_once():
    """The crossing-set finder reads endpoint columns (no ``Interval``
    boxing, no item adapter); and the flagging loop — build a finder for
    this partition, solve — is one function, which both flag-cycle
    reducers call."""
    crossing = ast.parse(
        (SRC / "core/algorithms/crossing.py").read_text(encoding="utf-8")
    )
    assert not {
        name
        for name in _imported(crossing)
        if name.startswith("repro.intervals.interval")
        or name == "repro.intervals.sweep.join_pairs"
    }

    constructions = [
        f"{path.name}:{function.name}"
        for path, tree in _modules("core/algorithms")
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and "CrossingSetFinder"
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert constructions == ["crossing.py:flag_columns"]


#: The ``$REPRO_*`` variables the package reads: the four run options.
RUN_OPTION_VARIABLES = {
    "REPRO_EXECUTOR", "REPRO_WORKERS", "REPRO_FAULTS", "REPRO_MAX_ATTEMPTS",
}


def env_variables(tree):
    """The ``REPRO_*`` names a module spells as a string of their own —
    the only way one reaches ``os.environ``; docstrings never match."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"REPRO_[A-Z][A-Z0-9_]*", node.value)
    }


def test_the_knob_inventory_does_not_grow():
    """One module reads the environment, for the four run options; the
    options themselves are executor, workers and a fault plan with its
    retry budget."""
    readers = [
        path.relative_to(SRC).as_posix()
        for path, tree in _modules("")
        if {"environ", "getenv"} & _names(tree)
    ]
    assert readers == ["mapreduce/options.py"]
    variables = set()
    for _, tree in _modules(""):
        variables |= env_variables(tree)
    assert variables == RUN_OPTION_VARIABLES
    assert [field.name for field in dataclasses.fields(RunOptions)] == [
        "executor", "workers", "faults",
    ]
    assert [field.name for field in dataclasses.fields(ResolvedFaults)] == [
        "plan", "max_attempts",
    ]


# ---------------------------------------------------------------------
def test_between_cycles_there_is_one_tuple_form():
    """A join job commits an ``IndexBlock`` of row indices, so nothing
    under ``src/`` spells the partial-tuple records form any more, nor a
    store that keeps a file as records or the rebuild of a block from
    them; and no view but ``RowView`` — the routers' per-record
    reference — reads a record: the others read a block's columns."""
    gone = re.compile(
        r"PartialTuple|partial_tuples|LiftedRowView|interval_columns|from_records|LocalFileSystem"
    )
    spelled = [
        f"{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if gone.search(line)
    ]
    assert spelled == []
    import repro.core.algorithms.routing as routing

    readers = {
        name for name, view in vars(routing).items()
        if isinstance(view, type) and issubclass(view, routing.View)
        and "interval_of" in vars(view)
    }
    assert readers == {"RowView"}


# Reachability: every module of the package is imported from an entry
# point, or says here why it stays.
# ---------------------------------------------------------------------
REPO = SRC.parent.parent

#: Modules no entry point imports, each with the reason it stays.
UNREACHED_ALLOWED = {
    "repro.intervals.sets": (
        "the brute-force oracle that tests/core/test_crossing.py and "
        "tests/properties/test_crossing_properties.py check "
        "core/algorithms/crossing.py against"
    ),
}


def _module_paths():
    paths = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


MODULE_PATHS = _module_paths()


def _runtime_imports(tree, module=None, package=False):
    """``(target module, imported names)`` of every import statement
    that runs — a lazy import inside a function is still an edge; an
    ``if TYPE_CHECKING:`` block is not."""
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and "TYPE_CHECKING" in (
            getattr(node.test, "id", None), getattr(node.test, "attr", None)
        )
        for statement in node.body
        for inner in ast.walk(statement)
    }
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            target = node.module
            if node.level:
                base = module if package else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    base = base.rpartition(".")[0]
                target = f"{base}.{node.module}" if node.module else base
            yield target, tuple(alias.name for alias in node.names)


def _reached(entries):
    """The ``repro`` modules an import walk from ``entries`` reaches.

    A module's imports are followed whole.  A package ``__init__`` runs
    when anything under it is imported, but its re-exports are followed
    only for the names somebody imports from the package — otherwise
    ``repro/__init__.py`` alone would reach everything it re-exports.
    """
    trees = {}

    def parsed(module):
        if module not in trees:
            trees[module] = ast.parse(
                MODULE_PATHS[module].read_text(encoding="utf-8")
            )
        return trees[module]

    reached, seen = set(), set()
    pending = list(entries)
    while pending:
        target, names = pending.pop()
        if (target, names) in seen or target.split(".")[0] != "repro":
            continue
        seen.add((target, names))
        parts = target.split(".")
        reached.update(
            ".".join(parts[:end])
            for end in range(1, len(parts) + 1)
            if ".".join(parts[:end]) in MODULE_PATHS
        )
        if target not in MODULE_PATHS:
            continue
        is_package = MODULE_PATHS[target].name == "__init__.py"
        if not is_package:
            pending.extend(_runtime_imports(parsed(target), target))
            continue
        for name in names:
            if f"{target}.{name}" in MODULE_PATHS:
                pending.append((f"{target}.{name}", ()))
                continue
            for source, imported in _runtime_imports(
                parsed(target), target, package=True
            ):
                if name in imported:
                    pending.append((source, (name,)))
    return reached


def test_every_module_is_reached_from_an_entry_point():
    """Walk the imports of ``repro.execute``, the CLI (``repro.cli.main``
    and ``python -m repro``), ``examples/*.py`` and
    ``benchmarks/**/*.py``: a module none of them reaches is dead code
    unless it is allowed above with a reason (and an allowed module
    that has become reachable leaves the list)."""
    entries = [
        ("repro", ("execute",)), ("repro.cli", ("main",)),
        ("repro.__main__", ()),
    ]
    for script in [
        *sorted((REPO / "examples").glob("*.py")),
        *sorted((REPO / "benchmarks").rglob("*.py")),
    ]:
        entries.extend(
            _runtime_imports(ast.parse(script.read_text(encoding="utf-8")))
        )
    unreached = set(MODULE_PATHS) - _reached(entries)
    assert unreached == set(UNREACHED_ALLOWED)


#: What a cold ``import repro`` must not load: the live status server
#: and its ``http.server`` (which pulls in ``email``), the dashboard, the
#: explain and report modules only the CLI and tools import, and the
#: metric registry and profiler, which a recorder loads only when read
#: or asked to profile.
COLD_IMPORT_ABSENT = (
    "http.server", "email", "repro.obs.dashboard", "repro.obs.live",
    "repro.obs.explain", "repro.obs.report", "repro.obs.metrics",
    "repro.obs.profile",
)


def test_a_cold_import_loads_no_server():
    """``import repro`` in a fresh interpreter loads none of
    :data:`COLD_IMPORT_ABSENT` — import time is the first term of every
    set-up — and every public ``repro.obs`` name still imports."""
    probe = (
        "import sys, repro; "
        f"print(sorted(m for m in {COLD_IMPORT_ABSENT!r} if m in sys.modules)); "
        "import repro.obs as obs; "
        "print(all(getattr(obs, name) is not None for name in obs.__all__))"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", "True"]
