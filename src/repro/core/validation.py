"""Join-output validation.

The reference join certifies correctness at test scale, but benchmarks
run sizes where an O(n^m) oracle is infeasible.  This module provides the
checks that remain cheap at any scale:

* every output tuple satisfies every query condition (soundness);
* no tuple appears twice (the exactly-once ownership rule held);
* tuple arity and relation membership are structurally correct;
* optionally, a *sampled completeness* probe: for a random sample of
  output tuples of one run, a second algorithm's output must contain
  them (used pairwise by the benchmark harness, where full set equality
  is also cheap since both outputs are in memory).

`validate_result` raises :class:`ValidationError` with a precise
description of a violation, so a failing benchmark pinpoints an
offending tuple.  It reads the result's columns and builds no ``Row``
tuple.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.batch import IndexBlock
from repro.core.query import IntervalJoinQuery
from repro.core.results import JoinResult
from repro.core.schema import Relation
from repro.errors import ValidationError

__all__ = ["ValidationError", "validate_result", "assert_equivalent"]


def validate_result(
    result: JoinResult,
    data: Optional[Mapping[str, Relation]] = None,
) -> None:
    """Check soundness, uniqueness, and structure of a join result, a
    column at a time: no ``Row`` tuple is built.

    Parameters
    ----------
    result:
        The result to check; its ``query`` drives the predicate checks.
    data:
        When given, each tuple's rows are verified to be actual rows of
        their relations (guards against corrupted shuffles): at once
        for a member indexing ``data``'s relation itself, or one equal
        to it, else row by row.
    """
    query = result.query
    blocks = result.blocks()  # refuses tuples of another arity
    rids = result.rid_columns()
    if len(result) > 1:
        repeated = np.ones(len(result) - 1, dtype=bool)
        for column in rids:
            repeated &= column[1:] == column[:-1]
        if repeated.any():
            raise ValidationError(
                f"tuple {_ids(rids, int(np.argmax(repeated)))} emitted more "
                "than once (exactly-once ownership violated)"
            )
    for block in blocks:
        if data is not None:
            _check_members(query, block, data)
        _check_conditions(query, block)


def _ids(columns: Sequence[np.ndarray], position: int) -> Tuple[int, ...]:
    """The rid tuple at ``position`` of per-relation rid ``columns``."""
    return tuple(column[position : position + 1].tolist()[0] for column in columns)


def _block_ids(query: IntervalJoinQuery, block: IndexBlock, position: int) -> Tuple[int, ...]:
    """The rid tuple of ``block``'s record at ``position``."""
    members = map(block.member, query.relations)
    return tuple(relation.rid_objects()[int(at[position])] for relation, at in members)


def _check_members(
    query: IntervalJoinQuery, block: IndexBlock, data: Mapping[str, Relation]
) -> None:
    for name in query.relations:
        relation, at = block.member(name)
        original = data[name]
        if relation is original or relation.rows == original.rows:
            continue
        by_rid = {row.rid: row for row in original.rows}
        checked = set()
        for index in np.unique(at).tolist():
            row = relation.rows[index]
            if id(row) in checked:
                continue
            checked.add(id(row))
            if by_rid.get(row.rid) != row:
                position = int(np.flatnonzero(at == index)[0])
                raise ValidationError(
                    f"tuple {_block_ids(query, block, position)}: row "
                    f"{row.rid} is not a row of relation {name!r}"
                )


def _check_conditions(query: IntervalJoinQuery, block: IndexBlock) -> None:
    for cond in query.conditions:
        (left, left_at), (right, right_at) = (
            block.member(term.relation) for term in (cond.left, cond.right)
        )
        u = left.columns(cond.left.attribute)
        v = right.columns(cond.right.attribute)
        holds = cond.predicate.holds_columns(
            u.starts[left_at], u.ends[left_at], v.starts[right_at], v.ends[right_at]
        )
        if not holds.all():
            position = int(np.argmin(holds))
            first = left.rows[int(left_at[position])].interval(cond.left.attribute)
            second = right.rows[int(right_at[position])].interval(cond.right.attribute)
            raise ValidationError(
                f"tuple {_block_ids(query, block, position)} violates {cond}: "
                f"{first} {cond.predicate.name} {second} is false"
            )


def assert_equivalent(
    first: JoinResult,
    second: JoinResult,
    sample: Optional[int] = None,
    seed: int = 0,
) -> None:
    """Check two results agree (full set equality, or a sampled probe).

    ``sample=None`` compares the full rid-tuple sets.  A positive
    ``sample`` checks that many random tuples of each side exist in the
    other — an O(sample) probe for gigantic outputs.
    """
    if sample is None:
        if not first.same_output(second):
            first_ids, second_ids = set(first.tuple_ids()), set(second.tuple_ids())
            only_first = first_ids - second_ids
            only_second = second_ids - first_ids
            raise ValidationError(
                f"{first.metrics.algorithm} vs {second.metrics.algorithm}: "
                f"{len(only_first)} tuples only in the first "
                f"(e.g. {sorted(only_first)[:3]}), {len(only_second)} only "
                f"in the second (e.g. {sorted(only_second)[:3]})"
            )
        return
    rng = random.Random(seed)
    first_ids = set(first.tuple_ids())
    second_ids = set(second.tuple_ids())
    for name, source, target in (
        (first.metrics.algorithm, first_ids, second_ids),
        (second.metrics.algorithm, second_ids, first_ids),
    ):
        pool = list(source)
        if not pool:
            continue
        for ids in rng.sample(pool, min(sample, len(pool))):
            if ids not in target:
                raise ValidationError(
                    f"tuple {ids} produced by {name} is missing from the "
                    "other result"
                )
