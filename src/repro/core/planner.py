"""Algorithm selection.

The planner applies the paper's taxonomy: colocation queries run RCCIS,
sequence queries run All-Matrix, hybrid queries run All-Seq-Matrix, and
everything else runs Gen-Matrix.
Single-condition queries short-circuit to the 2-way join.  Before choosing
an algorithm the planner tries to *prove the query empty* with Allen path
consistency — provably empty queries are answered without running a
single MapReduce job.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from repro.errors import PlanningError, UnsatisfiableQueryError
from repro.core.algorithms.all_replicate import AllReplicate
from repro.core.algorithms.base import JoinAlgorithm
from repro.core.algorithms.cascade import TwoWayCascade
from repro.core.algorithms.gen_matrix import AllMatrix, AllSeqMatrix, GenMatrix
from repro.core.algorithms.hybrid import FCTS, FSTC
from repro.core.algorithms.pasm import PASM
from repro.core.algorithms.rccis import RCCIS
from repro.core.algorithms.two_way import TwoWayJoin
from repro.core.graph import JoinGraph
from repro.core.query import IntervalJoinQuery, QueryClass

__all__ = [
    "ALGORITHMS",
    "algorithm_named",
    "choose_algorithm",
    "plan",
    "plan_alternatives",
    "Plan",
]

#: Registry of all algorithms by name (benchmarks and the executor use it).
ALGORITHMS: Dict[str, Type[JoinAlgorithm]] = {
    cls.name: cls
    for cls in (
        TwoWayJoin,
        TwoWayCascade,
        AllReplicate,
        RCCIS,
        AllMatrix,
        AllSeqMatrix,
        PASM,
        GenMatrix,
        FCTS,
        FSTC,
    )
}


def algorithm_named(name: str) -> JoinAlgorithm:
    """A fresh instance of the registered algorithm ``name`` — how an
    explicit override is resolved, by :func:`~repro.core.executor.execute`
    and by EXPLAIN alike."""
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise PlanningError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        ) from None


class Plan:
    """A chosen algorithm plus the reasoning behind the choice.

    ``empty_proof`` carries the Allen path-consistency proof text when
    the planner answered without running a job (which constraint pair
    emptied and the conditions touching it); ``alternatives`` records,
    per non-chosen registered algorithm, why the planner rejected it —
    both are what ``repro explain`` prints.
    """

    def __init__(
        self,
        query: IntervalJoinQuery,
        algorithm: Optional[JoinAlgorithm],
        provably_empty: bool,
        reason: str,
        empty_proof: Optional[str] = None,
        alternatives: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self.query = query
        self.algorithm = algorithm
        self.provably_empty = provably_empty
        self.reason = reason
        self.empty_proof = empty_proof
        self.alternatives = tuple(alternatives)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        name = self.algorithm.name if self.algorithm else "none"
        return f"Plan({name}: {self.reason})"


def choose_algorithm(
    query: IntervalJoinQuery, prune: bool = False
) -> JoinAlgorithm:
    """The paper's default algorithm for the query's class."""
    if len(query.conditions) == 1 and len(query.relations) == 2:
        return TwoWayJoin()
    klass = query.query_class
    if klass is QueryClass.COLOCATION:
        return RCCIS()
    if klass is QueryClass.SEQUENCE:
        return AllMatrix()
    if klass is QueryClass.HYBRID:
        return PASM() if prune else AllSeqMatrix()
    return GenMatrix()


def plan_alternatives(
    query: IntervalJoinQuery, chosen: str
) -> Tuple[Tuple[str, str], ...]:
    """Why each registered algorithm other than ``chosen`` was not picked.

    Returns ``(algorithm_name, reason)`` pairs in registry order — the
    rejected-alternatives section of EXPLAIN.  Every reason is specific
    to this query's class, not a generic capability blurb.
    """
    klass = query.query_class
    single = len(query.conditions) == 1 and len(query.relations) == 2
    out: List[Tuple[str, str]] = []
    for name in ALGORITHMS:
        if name == chosen:
            continue
        if name == "two_way":
            reason = (
                "handles single-condition two-relation queries only; "
                f"this query has {len(query.conditions)} conditions over "
                f"{len(query.relations)} relations"
            )
        elif name == "two_way_cascade":
            reason = (
                "cascade of 2-way joins; an explicit override, never the "
                "planner default (intermediate results can blow up)"
            )
        elif name == "all_replicate":
            reason = (
                "replicates every row to every reducer; the paper's "
                "baseline, never chosen by the planner"
            )
        elif name == "rccis":
            if single:
                reason = "single-condition query short-circuits to two_way"
            else:
                reason = (
                    "handles colocation queries only; this query is "
                    f"{klass.value}"
                )
        elif name == "all_matrix":
            if single:
                reason = "single-condition query short-circuits to two_way"
            else:
                reason = (
                    "handles sequence queries only; this query is "
                    f"{klass.value}"
                )
        elif name == "all_seq_matrix":
            if klass is QueryClass.HYBRID:
                reason = f"the hybrid-query default; {chosen} runs instead"
            elif single:
                reason = "single-condition query short-circuits to two_way"
            else:
                reason = (
                    "hybrid-query default only; this query is "
                    f"{klass.value}"
                )
        elif name == "pasm":
            if klass is QueryClass.HYBRID:
                reason = (
                    "All-Seq-Matrix after a marking cycle that prunes its "
                    'input; an explicit override (algorithm="pasm"), not '
                    "the planner default"
                )
            elif single:
                reason = "single-condition query short-circuits to two_way"
            else:
                reason = (
                    "handles hybrid queries only; this query is "
                    f"{klass.value}"
                )
        elif name == "gen_matrix":
            if klass is QueryClass.GENERAL and single:
                reason = "single-condition query short-circuits to two_way"
            elif klass is QueryClass.GENERAL:
                reason = "general fallback (should have been chosen)"
            else:
                reason = (
                    f"general fallback; the {klass.value} class has a "
                    "more specific algorithm"
                )
        elif name in ("fcts", "fstc"):
            reason = (
                "hybrid decomposition available via an explicit "
                "algorithm override, not a planner default"
            )
        else:  # pragma: no cover - future algorithms
            reason = "not the planner's default for this query class"
        out.append((name, reason))
    return tuple(out)


def plan(query: IntervalJoinQuery, prune: bool = False) -> Plan:
    """Build an execution plan, proving emptiness when possible."""
    try:
        graph = JoinGraph(query)
        proof = graph.empty_proof()
        if proof is not None:
            return Plan(
                query, None, True,
                "Allen path consistency proves the query empty",
                empty_proof=proof,
            )
    except UnsatisfiableQueryError as exc:
        return Plan(query, None, True, str(exc), empty_proof=str(exc))
    algorithm = choose_algorithm(query, prune=prune)
    return Plan(
        query,
        algorithm,
        False,
        f"{query.query_class.value} query -> {algorithm.name}",
        alternatives=plan_alternatives(query, algorithm.name),
    )
