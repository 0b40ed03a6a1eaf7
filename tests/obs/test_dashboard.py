"""HTML dashboard: structural validity and content smoke tests."""

from __future__ import annotations

from html.parser import HTMLParser

import pytest

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.obs import (
    JsonlSink,
    TraceRecorder,
    dashboard_from_recorder,
    load_spans_jsonl,
    render_dashboard,
)

from tests.conftest import make_dataset

COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)

#: All ten algorithms — the dashboard must render a replication factor
#: for every one of them (acceptance criteria).
ALL_CASES = [
    ("two_way", IntervalJoinQuery.parse([("R1", "overlaps", "R2")]),
     ("R1", "R2")),
    ("rccis", COLOCATION, ("R1", "R2", "R3")),
    ("all_replicate", SEQUENCE, ("R1", "R2", "R3")),
    ("all_matrix", SEQUENCE, ("R1", "R2", "R3")),
    ("two_way_cascade", SEQUENCE, ("R1", "R2", "R3")),
    ("all_seq_matrix", HYBRID, ("R1", "R2", "R3")),
    ("pasm", HYBRID, ("R1", "R2", "R3")),
    ("gen_matrix", HYBRID, ("R1", "R2", "R3")),
    ("fcts", HYBRID, ("R1", "R2", "R3")),
    ("fstc", HYBRID, ("R1", "R2", "R3")),
]


class _StrictParser(HTMLParser):
    """Counts tags; html.parser is lenient, so also track balance of the
    structural tags the dashboard emits."""

    TRACKED = {"html", "body", "table", "svg", "div"}

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.depth = {tag: 0 for tag in self.TRACKED}
        self.seen = set()

    def handle_starttag(self, tag, attrs):
        self.seen.add(tag)
        if tag in self.TRACKED:
            self.depth[tag] += 1

    def handle_endtag(self, tag):
        if tag in self.TRACKED:
            self.depth[tag] -= 1
            assert self.depth[tag] >= 0, f"unbalanced </{tag}>"


def _parse(page: str) -> _StrictParser:
    parser = _StrictParser()
    parser.feed(page)
    parser.close()
    assert all(depth == 0 for depth in parser.depth.values()), parser.depth
    return parser


def _observed_run(algorithm, query, relations):
    recorder = TraceRecorder()
    execute(
        query,
        make_dataset(relations, 40, seed=11),
        algorithm=algorithm,
        num_partitions=4,
        observer=recorder,
    )
    return recorder


@pytest.mark.parametrize(
    "algorithm,query,relations",
    [("rccis", COLOCATION, ("R1", "R2", "R3")),
     ("all_matrix", SEQUENCE, ("R1", "R2", "R3"))],
    ids=["rccis", "all_matrix"],
)
def test_dashboard_smoke(algorithm, query, relations):
    recorder = _observed_run(algorithm, query, relations)
    page = dashboard_from_recorder(recorder, title=f"run {algorithm}")
    parser = _parse(page)
    assert page.startswith("<!DOCTYPE html>")
    assert "svg" in parser.seen and "table" in parser.seen
    # Self-contained: no external fetches of any kind.
    for banned in ("http://", "https://", "<script", "<link", "@import"):
        assert banned not in page
    # Every phase name, every executed job, and the headline sections.
    for needle in ("map", "shuffle", "reduce", "Per-phase timeline",
                   "Per-reducer load", "Skew", "replication",
                   "Gini", "Jain"):
        assert needle in page, needle
    for job_result in recorder.job_results:
        assert job_result.name in page
    assert algorithm in page


@pytest.mark.parametrize(
    "algorithm,query,relations", ALL_CASES,
    ids=[case[0] for case in ALL_CASES],
)
def test_dashboard_replication_for_every_algorithm(
    algorithm, query, relations
):
    recorder = _observed_run(algorithm, query, relations)
    page = dashboard_from_recorder(recorder)
    _parse(page)
    assert "Skew &amp; replication per job" in page
    assert "Plan &#183; predicted vs observed" in page
    assert f"<td>{algorithm}</td>" in page


def test_dashboard_from_reloaded_trace(tmp_path):
    """The CLI path: spans round-trip through JSONL and the dashboard is
    rebuilt from them alone, every table with the numbers the live
    recorder's dashboard had."""
    trace = tmp_path / "trace.jsonl"
    recorder = TraceRecorder(JsonlSink(str(trace)))
    execute(
        COLOCATION,
        make_dataset(("R1", "R2", "R3"), 40, seed=11),
        algorithm="rccis",
        num_partitions=4,
        observer=recorder,
    )
    recorder.close()
    page = render_dashboard(load_spans_jsonl(str(trace)))
    _parse(page)
    for needle in ("rccis-flag", "rccis-join", "Per-phase timeline",
                   "Plan &#183; predicted vs observed"):
        assert needle in page
    live = render_dashboard(recorder.spans, recorder.metrics)
    tables = "<h2>Skew &amp; replication per job</h2>"
    assert page[page.index(tables):] == live[live.index(tables):]


def test_dashboard_renders_without_spans_or_metrics():
    page = render_dashboard([], title="empty")
    _parse(page)
    assert "no job spans recorded" in page
