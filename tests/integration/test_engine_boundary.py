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
time).  All of it is read off the AST, so a convention cannot drift
without a tier-1 failure.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.columnar.batch import ColumnValues
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
READER_SIDE = {"close", "snapshot_spans", "find", "render"}


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
    telemetry needed it — is imported by the algorithm driver alone."""
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
    assert pausers == ["core/algorithms/base.py"]


def test_the_map_side_is_written_once():
    """The fifteen-mapper fork cannot re-grow: under ``core/algorithms``
    the columnar protocol's mapper half is implemented by one class,
    ``map_columns`` exists only in ``routing.py`` (the mapper's and one
    per router), and no ``map`` method outside it spells out the
    Figure-1 project / split / replicate switch."""
    defined = {"encode_intervals": [], "columnar_ready": [], "map_columns": []}
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
            # A reducer's columnar_ready is the other half of the protocol.
            if "columnar_outputs" not in methods:
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
    assert defined["columnar_ready"] == ["routing.py:RoutedMapper"]
    assert all(
        where.startswith("routing.py:") for where in defined["map_columns"]
    )
    assert len(defined["map_columns"]) <= 4
    assert switches == []


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
    # Derived inputs (records an earlier job wrote) and the records form.
    "core/algorithms/routing.py": {"interval_of"},
    # Records-plane reducers turning received rows into columns.
    "core/local.py": {"attribute_columns"},
    # Oracles.
    "core/validation.py": None,
    "core/reference.py": None,
    # Records-only forms that ROADMAP items 1 and 5 delete: the grid
    # join's mapper, fcts-matrix's reducer, FCTS's driver-side filter.
    "core/algorithms/gen_matrix.py": {"map"},
    "core/algorithms/hybrid.py": {"extend", "plan"},
}


def test_rows_are_read_as_columns():
    """Whole-relation readers go through ``Relation.columns``: under
    ``core/`` and ``columnar/`` a row's ``.interval(`` is called only at
    the sites above — ``base.py`` (partitioning) and ``tuning.py``
    (profiling) have none — and a payload id is resolved one at a time
    (``store.value(``) only inside ``columnar/batch.py``, by the pickle
    safety net; reducers ``take`` a column."""
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
    assert set(one_at_a_time) == {"columnar/batch.py"}


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
