"""Full explanation reports: everything a user needs in one object.

:func:`explain_question` runs the complete workflow — original value,
additivity analysis, table *M*, top-K under both degrees, and the
concrete intervention behind the best answer — and returns an
:class:`ExplanationReport` that renders as readable text or a plain
dict (for JSON serialization by callers).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..engine.database import Database
from ..engine.types import Value
from .degrees import ExplanationScore
from .explainer import AUTO_METHOD, Explainer
from .question import UserQuestion
from .topk import RankedExplanation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.additivity import AdditivityCertificate


@dataclass(frozen=True)
class ExplanationReport:
    """The assembled answer to one user question."""

    question: str
    direction: str
    original_value: Value
    additivity: "AdditivityCertificate"
    method: str
    table_size: int
    top_by_intervention: Tuple[RankedExplanation, ...]
    top_by_aggravation: Tuple[RankedExplanation, ...]
    best_intervention: Optional[ExplanationScore]

    def render(self) -> str:
        """A readable multi-section text report."""
        lines: List[str] = []
        lines.append("=" * 64)
        lines.append(f"Question : why is Q so {self.direction}?")
        lines.append(f"Q        : {self.question}")
        lines.append(f"Q(D)     = {_fmt(self.original_value)}")
        lines.append(f"Method   : {self.method} ({self.table_size} candidate rows)")
        lines.append("")
        lines.append(self.additivity.explain())
        lines.append("")
        lines.append("Top explanations by INTERVENTION:")
        for r in self.top_by_intervention:
            lines.append(f"  {r.rank:>2}. {_fmt(r.degree):>12}  {r.explanation}")
        lines.append("")
        lines.append("Top explanations by AGGRAVATION:")
        for r in self.top_by_aggravation:
            lines.append(f"  {r.rank:>2}. {_fmt(r.degree):>12}  {r.explanation}")
        if self.best_intervention is not None:
            score = self.best_intervention
            lines.append("")
            lines.append(
                f"Minimal intervention for the top answer "
                f"({score.phi}):"
            )
            lines.append(
                f"  deletes {score.delta_size} tuples in "
                f"{score.intervention.iterations} fixpoint iterations"
            )
            for name, rows in score.intervention.delta.parts().items():
                if rows:
                    lines.append(f"    {name}: {len(rows)} tuples")
            lines.append(
                f"  Q(D)        = {_fmt(_env_value(score.q_original, self))}"
            )
            lines.append(
                f"  Q(D - Δ^φ)  = {_fmt(_env_value(score.q_intervention, self))}"
            )
        lines.append("=" * 64)
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """A JSON-serializable summary (degrees as floats or None)."""
        return {
            "question": self.question,
            "direction": self.direction,
            "original_value": _jsonable(self.original_value),
            "intervention_additive": self.additivity.all_exact_cube,
            "method": self.method,
            "table_size": self.table_size,
            "top_by_intervention": [
                {
                    "rank": r.rank,
                    "explanation": str(r.explanation),
                    "degree": _jsonable(r.degree),
                }
                for r in self.top_by_intervention
            ],
            "top_by_aggravation": [
                {
                    "rank": r.rank,
                    "explanation": str(r.explanation),
                    "degree": _jsonable(r.degree),
                }
                for r in self.top_by_aggravation
            ],
            "best_intervention": (
                {
                    "explanation": str(self.best_intervention.phi),
                    "deleted_tuples": self.best_intervention.delta_size,
                    "iterations": self.best_intervention.intervention.iterations,
                }
                if self.best_intervention is not None
                else None
            ),
        }

    def to_json(self, **kwargs) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **kwargs)


def _fmt(value: Value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _jsonable(value: Value):
    if isinstance(value, (int, float, str, bool)):
        if isinstance(value, float) and (
            value != value or value in (float("inf"), float("-inf"))
        ):
            return str(value)
        return value
    return None


def _env_value(env: Dict[str, Value], report: "ExplanationReport") -> str:
    return ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(env.items()))


def explain_question(
    database: Database,
    question: UserQuestion,
    attributes: Sequence[str],
    *,
    k: int = 5,
    strategy: str = "minimal_append",
    method: Optional[str] = None,
    support_threshold: Optional[float] = None,
) -> ExplanationReport:
    """Run the full workflow and assemble a report.

    ``method=None`` picks the way ``--method auto`` does everywhere
    else: the plan certificate's recommendation
    (:meth:`Explainer.resolve_method`).
    """
    explainer = Explainer(
        database, question, attributes, support_threshold=support_threshold
    )
    additivity = explainer.additivity_report()
    if method is None:
        method = explainer.resolve_method(AUTO_METHOD)
    m = explainer.explanation_table(method)
    top_i = tuple(explainer.top(k, by="intervention", strategy=strategy, method=method))
    top_a = tuple(explainer.top(k, by="aggravation", strategy=strategy, method=method))
    best = explainer.score(top_i[0].explanation) if top_i else None
    return ExplanationReport(
        question=str(question.query),
        direction=question.direction.value,
        original_value=explainer.original_value(),
        additivity=additivity,
        method=method,
        table_size=len(m),
        top_by_intervention=top_i,
        top_by_aggravation=top_a,
        best_intervention=best,
    )
