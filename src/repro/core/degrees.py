"""Degrees of explanation: μ_aggr and μ_interv (Definitions 2.4, 2.7).

This module is the *naive* evaluator: it scores one explanation at a
time, computing Δ^φ with program P and re-evaluating Q on the residual
database.  It is the ground truth the cube algorithm (Algorithm 1,
:mod:`repro.core.cube_algorithm`) is validated against, and the "No
Cube" baseline of Figure 12.

Operationally, following Section 4.1, ``q_j(D_φ)`` is evaluated as
``q_j(σ_φ(U))``: restricting the database to the φ-satisfying universal
tuples and re-joining cannot add rows for the SPJA aggregates the
framework supports, so the two readings coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..engine.database import Database
from ..engine.types import Value, is_null
from ..engine.universal import universal_table
from .intervention import InterventionResult, make_strategy
from .predicates import Predicate
from .question import UserQuestion


@dataclass(frozen=True)
class ExplanationScore:
    """Everything the naive evaluator knows about one explanation."""

    phi: Predicate
    mu_aggr: Value
    mu_interv: Value
    q_original: Dict[str, Value]
    q_aggravation: Dict[str, Value]
    q_intervention: Dict[str, Value]
    intervention: InterventionResult

    @property
    def delta_size(self) -> int:
        """|Δ^φ|."""
        return self.intervention.size


class DegreeEvaluator:
    """Scores explanations against one (database, question) pair.

    The universal table and the original aggregate values ``q_j(D)``
    are computed once and shared across explanations.
    """

    def __init__(
        self,
        database: Database,
        question: UserQuestion,
        *,
        strategy: Optional[str] = None,
    ) -> None:
        self.database = database
        self.question = question
        self.universal = universal_table(database)
        self.engine = make_strategy(
            database,
            strategy=strategy,
            universal=self.universal,
        )
        self.q_original: Dict[str, Value] = (
            question.query.aggregate_values(self.universal)
        )
        self.q_on_d: Value = question.query.evaluate_environment(self.q_original)

    # -- aggravation ------------------------------------------------------

    def aggravation_values(self, phi: Predicate) -> Dict[str, Value]:
        """``q_j(D_φ)`` for all aggregates (evaluated on σ_φ(U))."""
        restricted = self.universal.filter(phi.to_expression())
        return self.question.query.aggregate_values(restricted)

    def aggravation(self, phi: Predicate) -> Value:
        """μ_aggr(φ) = aggravation_sign × Q(D_φ)."""
        values = self.aggravation_values(phi)
        q = self.question.query.evaluate_environment(values)
        if is_null(q):
            return q
        return self.question.aggravation_sign * q

    # -- intervention ------------------------------------------------------

    def intervention_result(self, phi: Predicate) -> InterventionResult:
        """Δ^φ via program P."""
        return self.engine.compute(phi)

    def intervention_values(
        self, phi: Predicate, result: Optional[InterventionResult] = None
    ) -> Dict[str, Value]:
        """``q_j(D − Δ^φ)`` for all aggregates."""
        res = result if result is not None else self.intervention_result(phi)
        residual = self.database.subtract(res.delta)
        residual_universal = universal_table(residual)
        return self.question.query.aggregate_values(residual_universal)

    def intervention(self, phi: Predicate) -> Value:
        """μ_interv(φ) = intervention_sign × Q(D − Δ^φ)."""
        values = self.intervention_values(phi)
        q = self.question.query.evaluate_environment(values)
        if is_null(q):
            return q
        return self.question.intervention_sign * q

    # -- combined ---------------------------------------------------------

    def score(self, phi: Predicate) -> ExplanationScore:
        """Both degrees plus all intermediate values for one explanation."""
        aggr_values = self.aggravation_values(phi)
        mu_a = self.question.query.evaluate_environment(aggr_values)
        if not is_null(mu_a):
            mu_a = self.question.aggravation_sign * mu_a
        result = self.intervention_result(phi)
        interv_values = self.intervention_values(phi, result)
        mu_i = self.question.query.evaluate_environment(interv_values)
        if not is_null(mu_i):
            mu_i = self.question.intervention_sign * mu_i
        return ExplanationScore(
            phi=phi,
            mu_aggr=mu_a,
            mu_interv=mu_i,
            q_original=dict(self.q_original),
            q_aggravation=aggr_values,
            q_intervention=interv_values,
            intervention=result,
        )
