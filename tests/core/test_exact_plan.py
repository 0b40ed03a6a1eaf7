"""The exact tier runs each algorithm's own plan through the engine's
map and shuffle, dry.

``tests/core/test_predict.py`` pins *what* the exact tier returns (the
run's counters, bit for bit).  These tests pin *how*: the plan's final
join never executes while the flag / mark reducers later cycles depend on
do; no run option, environment variable or observer can touch a
prediction; ``core/predict.py`` has no map, group or reduce loop of its
own (every job goes through the runner's); and it holds no per-algorithm
knowledge (it imports nothing private from the algorithms).
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import repro.core.predict as predict_module
from repro.core.planner import ALGORITHMS
from repro.core.predict import DryPipeline
from repro.core.tuning import PredictConfig, profile_data

from tests.core.test_predict import QUERIES, _workload


def _exact(algorithm: str):
    query, data = _workload(algorithm, 60, 0)
    return ALGORITHMS[algorithm]().predict(
        query,
        profile_data(query, data),
        PredictConfig(num_partitions=8, exact=True, data=data),
    )


@pytest.mark.parametrize("algorithm", sorted(QUERIES))
def test_final_reducer_never_runs(algorithm, monkeypatch):
    """A spy on every job's reducer — its kernel: the last job of the
    plan is never reduced; every flag and mark cycle is."""
    jobs = []
    reduce_calls: Counter = Counter()
    real_run = DryPipeline.run

    def spying_run(self, conf):
        jobs.append(conf.name)
        hook = "kernel" if hasattr(conf.reducer, "kernel") else "reduce"
        reduce = getattr(conf.reducer, hook)

        def counted(key, values, context):
            reduce_calls[conf.name] += 1
            return reduce(key, values, context)

        setattr(conf.reducer, hook, counted)  # shadows the method on the instance
        return real_run(self, conf)

    monkeypatch.setattr(DryPipeline, "run", spying_run)
    prediction = _exact(algorithm)

    assert [cycle.name for cycle in prediction.cycles] == jobs
    assert reduce_calls[jobs[-1]] == 0
    decision_jobs = [
        name for name in jobs if name.endswith(("-flag", "-mark"))
    ]
    for name in decision_jobs:
        assert reduce_calls[name] > 0, f"{name} reducer never ran"
    # Intermediate joins a later cycle reads execute too (cascade steps,
    # the sub-plans of FCTS / FSTC); nothing else does.
    assert set(reduce_calls) <= set(jobs[:-1])
    if algorithm in ("rccis", "pasm", "all_seq_matrix", "gen_matrix", "fcts"):
        assert decision_jobs


@pytest.mark.parametrize("algorithm", sorted(QUERIES))
def test_run_options_and_observers_cannot_touch_a_prediction(
    algorithm, monkeypatch
):
    baseline = _exact(algorithm)

    for name, value in {
        "REPRO_EXECUTOR": "processes",
        "REPRO_FAULTS": "2014",
        "REPRO_MAX_ATTEMPTS": "3",
    }.items():
        monkeypatch.setenv(name, value)

    recorded = []

    def counting(original):
        def wrapper(self, *args, **kwargs):
            recorded.append(args)
            return original(self, *args, **kwargs)

        return wrapper

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.recorder import TraceRecorder

    monkeypatch.setattr(
        MetricsRegistry, "__init__", counting(MetricsRegistry.__init__)
    )
    monkeypatch.setattr(
        TraceRecorder, "start_span", counting(TraceRecorder.start_span)
    )

    assert _exact(algorithm) == baseline
    assert recorded == []


def test_predict_module_runs_no_engine_of_its_own():
    """Every job a prediction runs goes through the runner's map and
    shuffle: ``core/predict.py`` imports no task or shuffle code and
    names no task context or grouping dict."""
    nodes = list(ast.walk(ast.parse(Path(predict_module.__file__).read_text())))
    modules = {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    engine = {"repro.mapreduce.task", "repro.mapreduce.shuffle"}
    assert (modules | names) & engine == set()
    assert names & {"MapContext", "ReduceContext", "defaultdict"} == set()


def test_predict_module_imports_nothing_private_from_the_algorithms():
    tree = ast.parse(Path(predict_module.__file__).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.core.algorithms")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    functions = [
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]
    assert [name for name in functions if name.startswith("exact_")] == [
        "exact_prediction"
    ]
