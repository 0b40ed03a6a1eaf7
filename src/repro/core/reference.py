"""Reference (oracle) join.

A deliberately simple backtracking evaluation of a multi-way interval join
used as ground truth by the test suite and by the PASM pruning stage's
correctness checks.  The code favours being *obviously correct* over being
fast: bind relations one at a time in query order; at each step scan all
rows of the next relation and keep those satisfying every condition whose
other relation is already bound.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.columnar.batch import IndexBlock
from repro.core.query import IntervalJoinQuery, JoinCondition
from repro.core.results import ExecutionMetrics, JoinResult
from repro.core.schema import Relation, Row

__all__ = ["reference_join", "enumerate_reference_indices"]


def enumerate_reference_indices(
    query: IntervalJoinQuery, data: Mapping[str, Relation]
) -> Iterator[Tuple[int, ...]]:
    """Yield every satisfying tuple as its members' row indices in
    their relations, in ``query.relations`` order, in no particular
    tuple order."""
    query.validate_against(data)
    order: Sequence[str] = query.relations

    # Conditions applicable when binding the k-th relation: both of the
    # condition's relations are within order[:k+1] and one of them is
    # order[k].
    step_conditions: List[List[JoinCondition]] = []
    for k, name in enumerate(order):
        bound = set(order[: k + 1])
        step_conditions.append(
            [
                cond
                for cond in query.conditions
                if cond.left.relation in bound
                and cond.right.relation in bound
                and name in (cond.left.relation, cond.right.relation)
            ]
        )

    binding: Dict[str, Row] = {}
    chosen: List[int] = []

    def satisfied(cond: JoinCondition) -> bool:
        left_row = binding[cond.left.relation]
        right_row = binding[cond.right.relation]
        return cond.predicate.holds(
            left_row.interval(cond.left.attribute),
            right_row.interval(cond.right.attribute),
        )

    def extend(k: int) -> Iterator[Tuple[int, ...]]:
        if k == len(order):
            yield tuple(chosen)
            return
        name = order[k]
        for index, row in enumerate(data[name].rows):
            binding[name] = row
            if all(satisfied(cond) for cond in step_conditions[k]):
                chosen.append(index)
                yield from extend(k + 1)
                chosen.pop()
        binding.pop(name, None)

    yield from extend(0)


def reference_join(
    query: IntervalJoinQuery, data: Mapping[str, Relation]
) -> JoinResult:
    """Evaluate the query by backtracking; the ground-truth result, one
    block of row indices like a run's."""
    names = query.relations
    indices = list(enumerate_reference_indices(query, data))
    block = IndexBlock(
        names, [data[name] for name in names],
        np.reshape(np.array(indices, dtype=np.int64), (-1, len(names))),
        labelled=False,
    )
    metrics = ExecutionMetrics(algorithm="reference", output_records=len(block))
    return JoinResult.of_blocks(query, [block], metrics)
