"""repro — multi-way interval joins on MapReduce.

A from-scratch reproduction of *Processing Interval Joins On Map-Reduce*
(Chawda et al., EDBT 2014): Allen's interval algebra, the
project/split/replicate partitioning primitives, a faithful in-process
MapReduce simulator, and the paper's four algorithms (RCCIS, All-Matrix,
All-Seq-Matrix/PASM, Gen-Matrix) plus every baseline it compares against.

Quickstart
----------
>>> from repro import Interval, Relation, IntervalJoinQuery, execute
>>> r1 = Relation.of_intervals("R1", [Interval(0, 5)])
>>> r2 = Relation.of_intervals("R2", [Interval(3, 9)])
>>> query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
>>> result = execute(query, {"R1": r1, "R2": r2})
>>> len(result)
1
"""

from repro.core import (
    ALGORITHMS,
    ExecutionMetrics,
    IntervalJoinQuery,
    JoinCondition,
    JoinGraph,
    JoinResult,
    QueryClass,
    Relation,
    Row,
    Term,
    choose_algorithm,
    execute,
    plan,
    reference_join,
)
from repro.errors import (
    QueryError,
    ReproError,
    UnsatisfiableQueryError,
)
from repro.faults import FaultEvent, FaultPlan, ScriptedFaultPlan
from repro.intervals import (
    ALLEN_PREDICATES,
    AllenPredicate,
    Interval,
    Partitioning,
    get_predicate,
    relation_between,
)
from repro.mapreduce.options import resolve_faults

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "ALLEN_PREDICATES",
    "AllenPredicate",
    "ExecutionMetrics",
    "FaultEvent",
    "FaultPlan",
    "Interval",
    "IntervalJoinQuery",
    "JoinCondition",
    "JoinGraph",
    "JoinResult",
    "Partitioning",
    "QueryClass",
    "QueryError",
    "Relation",
    "ReproError",
    "Row",
    "ScriptedFaultPlan",
    "Term",
    "UnsatisfiableQueryError",
    "choose_algorithm",
    "execute",
    "get_predicate",
    "plan",
    "reference_join",
    "relation_between",
    "resolve_faults",
    "__version__",
]
