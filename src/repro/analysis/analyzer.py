"""The :class:`PlanCertificate` — one object answering, before any data
is touched: *will this plan converge, is the cube exact, and is the
request well-formed?*

:func:`analyze_plan` composes the three analyses of this package:

1. :func:`~repro.analysis.fkgraph.certify_convergence` — the FK-graph
   classification and the iteration bound for program P;
2. :func:`~repro.analysis.additivity.certify_additivity` — per-aggregate
   exact-cube / needs-iterative / unsupported verdicts;
3. :func:`~repro.analysis.linter.lint_plan` — RS00x diagnostics over
   the candidate attributes and the query.

The certificate is consumed by :class:`repro.core.explainer.Explainer`
(method selection and the iteration-bound runtime invariant), by the
execution backends (skipping per-request additivity probing), by the
``repro analyze`` CLI command and by the service's ``/v1/analyze``
endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..core.intervention import recommended_strategy_for_schema
from ..core.numquery import NumericalQuery
from ..core.question import UserQuestion
from ..engine.schema import DatabaseSchema
from .additivity import AdditivityCertificate, certify_additivity
from .fkgraph import ConvergenceCertificate, certify_convergence
from .linter import SEVERITY_ERROR, Diagnostic, lint_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.database import Database
    from ..engine.table import Table


@dataclass(frozen=True)
class PlanCertificate:
    """The full static-analysis result for one explanation plan."""

    schema_rendered: str
    attributes: Tuple[str, ...]
    query_rendered: Optional[str]
    convergence: ConvergenceCertificate
    additivity: Optional[AdditivityCertificate]
    diagnostics: Tuple[Diagnostic, ...]
    #: The program-P schedule the schema selects
    #: (:func:`~repro.core.intervention.recommended_strategy_for_schema`
    #: — the rule ``make_strategy`` runs); reported by ``repro analyze``
    #: and ``/v1/analyze``.
    recommended_strategy: str

    @property
    def has_errors(self) -> bool:
        """True when any diagnostic is error-severity."""
        return any(d.severity == SEVERITY_ERROR for d in self.diagnostics)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        """Only the error-severity diagnostics."""
        return tuple(
            d for d in self.diagnostics if d.severity == SEVERITY_ERROR
        )

    @property
    def recommended_method(self) -> str:
        """The fastest evaluation method certified sound for this plan."""
        if self.additivity is None:
            return "exact"
        return self.additivity.recommended_method

    @property
    def certified_bound(self) -> Optional[int]:
        """The concrete iteration bound, when one was derived."""
        return self.convergence.bound

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering (the ``/v1/analyze`` body)."""
        return {
            "schema": self.schema_rendered,
            "attributes": list(self.attributes),
            "query": self.query_rendered,
            "convergence": self.convergence.to_dict(),
            "additivity": (
                None if self.additivity is None else self.additivity.to_dict()
            ),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "recommended_method": self.recommended_method,
            "recommended_strategy": self.recommended_strategy,
            "has_errors": self.has_errors,
        }

    def render(self) -> str:
        """A readable multi-section report for the CLI."""
        conv = self.convergence
        lines: List[str] = ["Plan certificate", f"  schema: {self.schema_rendered}"]
        if self.query_rendered is not None:
            lines.append(f"  query: {self.query_rendered}")
        lines.append(
            "  attributes: "
            + (", ".join(self.attributes) if self.attributes else "(none)")
        )
        lines.append("")
        lines.append("Foreign-key graph")
        if conv.edges:
            for edge in conv.edges:
                lines.append(f"  {edge.rendered}   [{edge.kind}]")
        else:
            lines.append("  (no foreign keys)")
        lines.append(
            "  back-and-forth interaction: "
            + ("cyclic" if conv.interaction_cycle else "acyclic")
        )
        lengths = ", ".join(
            f"{name}={'unbounded' if q is None else q}"
            for name, q in conv.causal_length.items()
        )
        lines.append(f"  causal length q by seed relation: {lengths}")
        lines.append("")
        lines.append("Convergence")
        selected = conv.selected
        lines.append(
            f"  certified bound: {conv.bound_expression} iterations "
            f"via {selected.rule} ({selected.proposition})"
        )
        for rule in conv.rules:
            status = "applies" if rule.applicable else "n/a"
            marker = "*" if rule.rule == conv.selected_rule else " "
            lines.append(
                f"  {marker} {rule.rule:<10} {status:<8} "
                f"bound {rule.bound_expression:<16} {rule.reason}"
            )
        strategy_reason = (
            "back-and-forth cascades collapse to closure-index probes"
            if self.recommended_strategy == "closure"
            else "no back-and-forth keys; the fixpoint is already bounded"
        )
        lines.append(
            f"  recommended strategy: {self.recommended_strategy} "
            f"({strategy_reason})"
        )
        lines.append("")
        lines.append("Additivity")
        if self.additivity is None:
            lines.append("  (no numerical query supplied)")
        else:
            for v in self.additivity.verdicts:
                lines.append(f"  {v.name}: {v.verdict} — {v.reason}")
                if v.data_condition is not None:
                    lines.append(f"      unresolved condition: {v.data_condition}")
            lines.append(
                f"  recommended method: {self.additivity.recommended_method}"
            )
        lines.append("")
        lines.append("Diagnostics")
        if self.diagnostics:
            for d in self.diagnostics:
                lines.append(f"  {d}")
        else:
            lines.append("  none")
        return "\n".join(lines)


def analyze_plan(
    schema: DatabaseSchema,
    query: Union[NumericalQuery, UserQuestion, None],
    attributes: Sequence[str],
    *,
    database: Optional["Database"] = None,
    universal: Optional["Table"] = None,
    total_rows: Optional[int] = None,
) -> PlanCertificate:
    """Produce the :class:`PlanCertificate` for one plan.

    *query* may be a :class:`~repro.core.numquery.NumericalQuery`, a
    :class:`~repro.core.question.UserQuestion` (its query is used), or
    None to analyze convergence and attributes only.  Supplying
    *database* (or *universal*) resolves the footnote-11 data condition
    and concretizes the Proposition 3.4 row-count bound; *total_rows*
    alone concretizes the bound without any data access.
    """
    numquery: Optional[NumericalQuery]
    if isinstance(query, UserQuestion):
        numquery = query.query
    else:
        numquery = query
    rows = total_rows
    if rows is None and database is not None:
        rows = database.total_rows()
    convergence = certify_convergence(schema, total_rows=rows)
    additivity = (
        None
        if numquery is None
        else certify_additivity(
            schema, numquery, database=database, universal=universal
        )
    )
    diagnostics = lint_plan(schema, numquery, attributes)
    return PlanCertificate(
        schema_rendered=str(schema),
        attributes=tuple(attributes),
        query_rendered=None if numquery is None else str(numquery),
        convergence=convergence,
        additivity=additivity,
        diagnostics=diagnostics,
        recommended_strategy=recommended_strategy_for_schema(schema),
    )
