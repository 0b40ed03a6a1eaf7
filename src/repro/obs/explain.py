"""Query EXPLAIN and predicted-vs-actual plan reconciliation.

Two halves, one contract:

* **Pre-run EXPLAIN** — :func:`explain_query` renders the physical plan
  for a query *before* anything runs: the planner's decision rationale
  (query class, Allen path-consistency emptiness proof, chosen algorithm
  and why each alternative was rejected), the MapReduce cycle structure,
  the reducer-grid shape (consistent vs total reducers), the partitioner
  and what the pair kernel does for each predicate (its candidate
  windows and its mask), plus the analytic predictions of
  :meth:`~repro.core.algorithms.base.JoinAlgorithm.predict` (replication
  factor, map-output tuples, shuffled records, max reducer load,
  modelled seconds).
* **Post-run reconciliation** — :class:`PlanReconciliation` joins those
  predictions against the observed
  :meth:`~repro.core.results.ExecutionMetrics.observed_quantities`, one
  row per quantity with the signed relative error, ranked worst-offender
  first.  The executor records both sides as spans (``kind="plan"`` and
  ``kind="reconciliation"``) and the metrics fold turns the latter into
  run-group gauges (``repro_plan_predicted`` / ``repro_plan_observed`` /
  ``repro_plan_relative_error``), so the numbers survive into the JSONL
  trace, the Prometheus exposition, the HTML dashboard's Plan panel and
  ``repro report`` — and ``benchmarks/check_model_error.py`` turns
  cost-model drift into a CI gate.

Everything here is deterministic: the analytic tier depends only on the
:class:`~repro.core.tuning.DataProfile` and the
:class:`~repro.core.tuning.PredictConfig`, and every observed quantity
lives in the ``run`` metric group, so reconciliations are bit-identical
across executors and invariant under fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ReproError
from repro.obs.span import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query import IntervalJoinQuery
    from repro.core.results import ExecutionMetrics
    from repro.core.schema import Relation
    from repro.core.tuning import PlanPrediction
    from repro.intervals.partitioning import Partitioning
    from repro.mapreduce.cost import CostModel

__all__ = [
    "PlanExplain",
    "PlanReconciliation",
    "ReconciliationRow",
    "explain_query",
    "reconciliation_from_spans",
    "relative_error",
]

#: Guard against division by ~zero when the observed quantity is tiny.
_ERROR_FLOOR = 1e-9


def relative_error(predicted: float, observed: float) -> float:
    """Signed relative error of a prediction: ``(pred - obs) / |obs|``.

    Positive means the model over-predicted.  Both sides zero is a
    perfect prediction (0.0); an observed zero against a non-zero
    prediction divides by the floor of 1.0 so the error stays finite and
    meaningful (it becomes the absolute miss).
    """
    if predicted == observed:
        return 0.0
    return (predicted - observed) / max(abs(observed), 1.0, _ERROR_FLOOR)


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReconciliationRow:
    """One quantity's predicted/observed/relative-error triple."""

    quantity: str
    predicted: float
    observed: float

    @property
    def error(self) -> float:
        return relative_error(self.predicted, self.observed)

    def as_dict(self) -> Dict[str, float]:
        return {
            "quantity": self.quantity,
            "predicted": self.predicted,
            "observed": self.observed,
            "relative_error": self.error,
        }


@dataclass(frozen=True)
class PlanReconciliation:
    """Predicted-vs-observed join for one algorithm run.

    Build with :meth:`from_metrics` (live run) or
    :func:`reconciliation_from_spans` (recorded spans); ``rows`` holds
    one :class:`ReconciliationRow` per quantity the cost model predicts.
    """

    algorithm: str
    tier: str
    rows: Tuple[ReconciliationRow, ...]

    # ------------------------------------------------------------------
    @classmethod
    def from_metrics(
        cls, prediction: "PlanPrediction", metrics: "ExecutionMetrics"
    ) -> "PlanReconciliation":
        """Join a prediction against one run's execution metrics, on the
        quantities both sides name."""
        predicted = prediction.quantities()
        observed = metrics.observed_quantities()
        rows = tuple(
            ReconciliationRow(
                quantity=key,
                predicted=float(predicted[key]),
                observed=float(observed[key]),
            )
            for key in sorted(set(predicted) & set(observed))
        )
        return cls(algorithm=metrics.algorithm, tier=prediction.tier, rows=rows)

    # ------------------------------------------------------------------
    def row(self, quantity: str) -> Optional[ReconciliationRow]:
        for entry in self.rows:
            if entry.quantity == quantity:
                return entry
        return None

    def errors(self) -> Dict[str, float]:
        """``quantity -> signed relative error`` for every row."""
        return {entry.quantity: entry.error for entry in self.rows}

    def worst_offenders(
        self, limit: Optional[int] = None
    ) -> List[ReconciliationRow]:
        """Rows ranked by absolute relative error, worst first."""
        ranked = sorted(
            self.rows, key=lambda r: (-abs(r.error), r.quantity)
        )
        return ranked[:limit] if limit is not None else ranked

    @property
    def max_relative_error(self) -> float:
        return max((abs(r.error) for r in self.rows), default=0.0)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "tier": self.tier,
            "rows": [row.as_dict() for row in self.rows],
            "max_relative_error": self.max_relative_error,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlanReconciliation":
        return cls(
            algorithm=str(payload["algorithm"]),
            tier=str(payload.get("tier", "analytic")),
            rows=tuple(
                ReconciliationRow(
                    quantity=str(row["quantity"]),
                    predicted=float(row["predicted"]),
                    observed=float(row["observed"]),
                )
                for row in payload.get("rows", ())
            ),
        )

    def render(self) -> str:
        """A printable reconciliation table, worst offender first."""
        lines = [
            f"plan reconciliation — {self.algorithm} "
            f"({self.tier} prediction)"
        ]
        width = max((len(r.quantity) for r in self.rows), default=8)
        for row in self.worst_offenders():
            lines.append(
                f"  {row.quantity:<{width}}  "
                f"predicted={_fmt(row.predicted):>12}  "
                f"observed={_fmt(row.observed):>12}  "
                f"error={row.error:+8.2%}"
            )
        if not self.rows:
            lines.append("  (no prediction to reconcile)")
        return "\n".join(lines)


def reconciliation_from_spans(
    spans: Sequence[Span],
) -> List[PlanReconciliation]:
    """Rebuild reconciliations from a recorded span sequence — one per
    ``kind="reconciliation"`` span, in trace order — exactly what
    ``repro report`` does with a saved JSONL trace after the run is
    gone."""
    return [
        PlanReconciliation.from_dict(span.attributes)
        for span in spans
        if span.kind == "reconciliation"
    ]


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlanExplain:
    """Everything ``repro explain`` prints for one query."""

    query: str
    query_class: str
    algorithm: Optional[str]
    chosen_by: str
    reason: str
    provably_empty: bool
    empty_proof: Optional[str]
    alternatives: Tuple[Tuple[str, str], ...]
    num_partitions: int
    partitioner: str
    kernels: Tuple[Tuple[str, str], ...]
    prediction: Optional["PlanPrediction"]
    prediction_error: Optional[str]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "query_class": self.query_class,
            "algorithm": self.algorithm,
            "chosen_by": self.chosen_by,
            "reason": self.reason,
            "provably_empty": self.provably_empty,
            "empty_proof": self.empty_proof,
            "alternatives": [list(alt) for alt in self.alternatives],
            "num_partitions": self.num_partitions,
            "partitioner": self.partitioner,
            "kernels": [list(pair) for pair in self.kernels],
            "prediction": (
                self.prediction.as_dict() if self.prediction else None
            ),
            "prediction_error": self.prediction_error,
        }

    def render(self) -> str:
        """The EXPLAIN text: rationale, physical plan, predictions."""
        lines = [f"EXPLAIN {self.query}"]
        lines.append(f"  class:       {self.query_class}")
        if self.provably_empty:
            lines.append("  plan:        answer empty without running jobs")
            lines.append(f"  emptiness:   {self.empty_proof or self.reason}")
            return "\n".join(lines)
        lines.append(
            f"  plan:        {self.reason}  [chosen by {self.chosen_by}]"
        )
        lines.append(
            "  emptiness:   not provably empty "
            "(Allen path consistency found no contradiction)"
        )
        if self.alternatives:
            lines.append("  rejected alternatives:")
            for name, why in self.alternatives:
                lines.append(f"    - {name}: {why}")
        lines.append(f"  partitioner: {self.partitioner}")
        if self.kernels:
            lines.append("  kernels:")
            for condition, kernel in self.kernels:
                lines.append(f"    {condition} -> {kernel}")
        prediction = self.prediction
        if prediction is None:
            lines.append(
                "  prediction:  unavailable"
                + (f" ({self.prediction_error})" if self.prediction_error
                   else "")
            )
            return "\n".join(lines)
        lines.append(
            f"  physical plan: {prediction.num_cycles} MapReduce cycle(s), "
            f"{self.num_partitions} partitions, {prediction.tier} prediction"
        )
        for index, cycle in enumerate(prediction.cycles, start=1):
            lines.append(
                f"    cycle {index} [{cycle.name}]: "
                f"reads={_fmt(cycle.records_read)} "
                f"map_output={_fmt(cycle.map_output_records)} "
                f"shuffled={_fmt(cycle.shuffled_records)} "
                f"reduce_tasks={cycle.reduce_tasks} "
                f"max_load={_fmt(cycle.max_reducer_load)}"
            )
        total = max(prediction.total_reducers, 0)
        if total:
            utilisation = prediction.consistent_reducers / total
            lines.append(
                f"  reducer grid: {prediction.consistent_reducers} "
                f"consistent / {total} total "
                f"(utilisation {utilisation:.2f})"
            )
        lines.append("  predicted:")
        for quantity, value in sorted(prediction.quantities().items()):
            lines.append(f"    {quantity:<20} {_fmt(value)}")
        for note in prediction.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def explain_query(
    query: "IntervalJoinQuery",
    data: Optional[Mapping[str, "Relation"]] = None,
    *,
    algorithm: Optional[str] = None,
    num_partitions: int = 16,
    prune: bool = False,
    cost_model: Optional["CostModel"] = None,
    exact: bool = False,
    partition_strategy: str = "uniform",
    partitioning: Optional["Partitioning"] = None,
) -> PlanExplain:
    """Build the pre-run EXPLAIN for a query.

    ``data`` supplies the :class:`~repro.core.tuning.DataProfile` the
    analytic predictions need (and the rows themselves when
    ``exact=True``); without it the plan rationale still renders but the
    prediction section reports itself unavailable.  ``algorithm``
    overrides the planner exactly as :func:`repro.core.executor.execute`
    does.  ``partition_strategy`` and ``partitioning`` are the run's
    partitioning inputs, which the exact tier follows.
    """
    from repro.core.planner import ALGORITHMS, plan, plan_alternatives
    from repro.core.tuning import PredictConfig, profile_data
    from repro.errors import PlanningError
    from repro.intervals.sweep import WINDOW_NAMES, window_kind
    from repro.mapreduce.cost import DEFAULT_COST_MODEL

    chosen = plan(query, prune=prune)
    if chosen.provably_empty:
        return PlanExplain(
            query=str(query),
            query_class=query.query_class.name,
            algorithm=None,
            chosen_by="planner",
            reason=chosen.reason,
            provably_empty=True,
            empty_proof=chosen.empty_proof,
            alternatives=(),
            num_partitions=num_partitions,
            partitioner="",
            kernels=(),
            prediction=None,
            prediction_error=None,
        )

    if algorithm is None:
        runner = chosen.algorithm
        chosen_by = "planner"
        reason = chosen.reason
        alternatives = chosen.alternatives
    else:
        try:
            runner = ALGORITHMS[algorithm]()
        except KeyError:
            raise PlanningError(
                f"unknown algorithm {algorithm!r}; known: "
                f"{sorted(ALGORITHMS)}"
            ) from None
        chosen_by = "override"
        reason = (
            f"{query.query_class.value} query -> {runner.name} "
            f"(planner would pick "
            f"{chosen.algorithm.name if chosen.algorithm else 'none'})"
        )
        alternatives = plan_alternatives(
            query, runner.name, prune=prune
        )

    # What the pair kernel does for each condition: the candidate
    # windows its rule picks, masked by the predicate.
    kernels = [
        (
            str(condition),
            f"{WINDOW_NAMES[window_kind(condition.predicate)]} windows, "
            f"{condition.predicate.name} mask",
        )
        for condition in query.conditions
    ]

    prediction = None
    prediction_error = None
    if data is not None:
        conf = PredictConfig(
            num_partitions=num_partitions,
            cost_model=cost_model or DEFAULT_COST_MODEL,
            exact=exact,
            data=data if exact else None,
            partition_strategy=partition_strategy,
            partitioning=partitioning,
        )
        try:
            prediction = runner.predict(
                query, profile_data(query, data), conf
            )
        except ReproError as exc:
            prediction_error = str(exc)
    else:
        prediction_error = "no data bound; profile unavailable"

    return PlanExplain(
        query=str(query),
        query_class=query.query_class.name,
        algorithm=runner.name,
        chosen_by=chosen_by,
        reason=reason,
        provably_empty=False,
        empty_proof=None,
        alternatives=alternatives,
        num_partitions=num_partitions,
        partitioner=(
            "round-robin over sorted logical keys (deterministic "
            "task assignment)"
        ),
        kernels=tuple(kernels),
        prediction=prediction,
        prediction_error=prediction_error,
    )


def _fmt(value: float) -> str:
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.3f}"
