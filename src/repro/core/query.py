"""Join query model: conditions, queries, and query-class detection.

A condition joins two relation attributes under one Allen predicate.  The
paper's four query classes (Section 1) are detected automatically:

* ``COLOCATION`` — single interval attribute per relation, only colocation
  predicates;
* ``SEQUENCE`` — single attribute, only ``before``/``after``;
* ``HYBRID`` — single attribute, both kinds;
* ``GENERAL`` — anything involving multiple attributes (including
  real-valued attributes via their point-interval embedding).

Terms may be written ``"R1"`` (the default attribute ``I``) or ``"R1.A"``.

Examples
--------
>>> q = IntervalJoinQuery.parse(
...     [("R1", "overlaps", "R2"), ("R2", "contains", "R3")]
... )
>>> q.query_class.name
'COLOCATION'
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Sequence, Tuple, Union

from repro.errors import QueryError
from repro.intervals.allen import AllenPredicate, get_predicate
from repro.core.schema import DEFAULT_ATTRIBUTE

__all__ = ["Term", "JoinCondition", "QueryClass", "IntervalJoinQuery"]


@dataclass(frozen=True, order=True)
class Term:
    """A ``relation.attribute`` reference."""

    relation: str
    attribute: str = DEFAULT_ATTRIBUTE

    @classmethod
    def parse(cls, text: Union[str, "Term"]) -> "Term":
        """Parse ``"R1"`` or ``"R1.A"`` (at most one dot)."""
        if isinstance(text, Term):
            return text
        parts = text.split(".")
        if len(parts) == 1:
            return cls(parts[0])
        if len(parts) == 2 and all(parts):
            return cls(parts[0], parts[1])
        raise QueryError(f"malformed term {text!r}; expected 'Rel' or 'Rel.Attr'")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.relation}.{self.attribute}"


@dataclass(frozen=True)
class JoinCondition:
    """One predicate between two terms: ``left P right``."""

    left: Term
    predicate: AllenPredicate
    right: Term

    def __post_init__(self) -> None:
        if self.left.relation == self.right.relation:
            raise QueryError(
                f"condition joins a relation to itself: {self.left} "
                f"{self.predicate.name} {self.right}; alias the relation "
                "for self-joins"
            )

    @classmethod
    def parse(
        cls,
        left: Union[str, Term],
        predicate: Union[str, AllenPredicate],
        right: Union[str, Term],
    ) -> "JoinCondition":
        return cls(Term.parse(left), get_predicate(predicate), Term.parse(right))

    @property
    def is_sequence(self) -> bool:
        return self.predicate.is_sequence

    @property
    def is_colocation(self) -> bool:
        return self.predicate.is_colocation

    def as_triple(self) -> Tuple[str, AllenPredicate, str]:
        """The condition keyed by relation names only (single-attribute
        queries), as consumed by :mod:`repro.intervals.sets`."""
        return (self.left.relation, self.predicate, self.right.relation)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.left} {self.predicate.name} {self.right}"


class QueryClass(enum.Enum):
    """The paper's four-way query taxonomy (Section 1)."""

    COLOCATION = "colocation"
    SEQUENCE = "sequence"
    HYBRID = "hybrid"
    GENERAL = "general"


class IntervalJoinQuery:
    """A multi-way interval join query.

    Parameters
    ----------
    conditions:
        The join conditions.  The relation set is inferred from them; an
        optional explicit ``relations`` order fixes output-tuple column
        order (default: first-appearance order).
    """

    def __init__(
        self,
        conditions: Sequence[JoinCondition],
        relations: Sequence[str] = (),
    ) -> None:
        if not conditions:
            raise QueryError("a join query needs at least one condition")
        self.conditions: Tuple[JoinCondition, ...] = tuple(conditions)
        #: every ``relation.attribute`` the conditions name, in order of
        #: first appearance.
        self.terms: Tuple[Term, ...] = tuple(
            dict.fromkeys(t for c in self.conditions for t in (c.left, c.right))
        )

        appearing: List[str] = []
        for cond in self.conditions:
            for name in (cond.left.relation, cond.right.relation):
                if name not in appearing:
                    appearing.append(name)
        if relations:
            missing = set(appearing) - set(relations)
            if missing:
                raise QueryError(
                    f"explicit relation list omits {sorted(missing)}"
                )
            self.relations: Tuple[str, ...] = tuple(dict.fromkeys(relations))
        else:
            self.relations = tuple(appearing)

        self._check_connected()

    # ------------------------------------------------------------------
    @classmethod
    def parse(
        cls,
        conditions: Iterable[
            Tuple[Union[str, Term], Union[str, AllenPredicate], Union[str, Term]]
        ],
        relations: Sequence[str] = (),
    ) -> "IntervalJoinQuery":
        """Build a query from ``(left, predicate, right)`` triples."""
        return cls(
            [JoinCondition.parse(l, p, r) for l, p, r in conditions],
            relations=relations,
        )

    # ------------------------------------------------------------------
    def _check_connected(self) -> None:
        """The join graph over relations must be connected — otherwise the
        query is a cross product of independent joins, which none of the
        paper's algorithms (nor its problem statement) covers."""
        if len(self.relations) <= 1:
            return
        adjacency = {name: set() for name in self.relations}
        for cond in self.conditions:
            adjacency[cond.left.relation].add(cond.right.relation)
            adjacency[cond.right.relation].add(cond.left.relation)
        seen = {self.relations[0]}
        frontier = [self.relations[0]]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        if seen != set(self.relations):
            raise QueryError(
                "query join graph is disconnected: "
                f"{sorted(set(self.relations) - seen)} unreachable"
            )

    # ------------------------------------------------------------------
    def attributes_of(self, relation: str) -> Tuple[str, ...]:
        """The attributes of ``relation`` referenced by this query."""
        out: List[str] = []
        for term in self.terms:
            if term.relation == relation and term.attribute not in out:
                out.append(term.attribute)
        return tuple(out)

    @property
    def is_single_attribute(self) -> bool:
        """True when every relation joins through exactly one attribute and
        all those attributes play the role of one global time axis (the
        Sections 4-8 setting)."""
        return all(len(self.attributes_of(name)) == 1 for name in self.relations)

    @property
    def query_class(self) -> QueryClass:
        has_colocation = any(c.is_colocation for c in self.conditions)
        has_sequence = any(c.is_sequence for c in self.conditions)
        if not self.is_single_attribute:
            return QueryClass.GENERAL
        if has_colocation and has_sequence:
            return QueryClass.HYBRID
        if has_sequence:
            return QueryClass.SEQUENCE
        return QueryClass.COLOCATION

    # ------------------------------------------------------------------
    def conditions_as_triples(self) -> List[Tuple[str, AllenPredicate, str]]:
        """Conditions keyed by relation name (single-attribute queries)."""
        if not self.is_single_attribute:
            raise QueryError(
                "relation-keyed conditions are only defined for "
                "single-attribute queries"
            )
        return [cond.as_triple() for cond in self.conditions]

    def validate_against(self, data: Mapping[str, "object"]) -> None:
        """Check every query relation is present in a data mapping."""
        missing = [name for name in self.relations if name not in data]
        if missing:
            raise QueryError(f"data missing relations: {missing}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " and ".join(str(cond) for cond in self.conditions)
