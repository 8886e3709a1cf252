"""Pre-flight validation: is this database fit for explanation analysis?

The framework's guarantees rest on assumptions the paper states up
front (Section 2): referential integrity, a semijoin-reduced instance,
an acyclic join tree, and — for the cube fast path — an
intervention-additive query.  :func:`validate_database` and
:func:`validate_question` check them all and return a structured
report, so problems surface before a long analysis instead of as
subtly wrong rankings.  The CLI exposes this as ``python -m repro
check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..engine.database import Database
from ..engine.reduction import semijoin_reduce
from ..engine.table import Table
from ..engine.universal import universal_table
from ..errors import IntegrityError
from .additivity import analyze_additivity
from .causality import SchemaCausalGraph
from .question import UserQuestion


@dataclass(frozen=True)
class Check:
    """One validation check result."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """All checks, with an overall verdict."""

    checks: Tuple[Check, ...]

    @property
    def ok(self) -> bool:
        """True iff every check passed."""
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        """A readable checklist."""
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        verdict = "OK" if self.ok else "PROBLEMS FOUND"
        return f"validation: {verdict}\n" + "\n".join(lines)


def validate_database(database: Database) -> ValidationReport:
    """Structural checks on the instance itself."""
    checks: List[Check] = []

    # 1. Referential integrity.
    try:
        database.check_integrity()
        checks.append(
            Check("referential integrity", True, "all foreign keys resolve")
        )
    except IntegrityError as exc:
        checks.append(Check("referential integrity", False, str(exc)))

    # 2. Semijoin reduction (the Section 2 standing assumption).
    _, removed = semijoin_reduce(database)
    if removed.is_empty():
        checks.append(
            Check("semijoin-reduced", True, "no dangling tuples")
        )
    else:
        dangling = {
            name: len(rows)
            for name, rows in removed.parts().items()
            if rows
        }
        checks.append(
            Check(
                "semijoin-reduced",
                False,
                f"dangling tuples: {dangling} — run "
                "repro.engine.semijoin_reduce() first",
            )
        )

    # 3. Schema causal-graph facts (informational bounds).
    graph = SchemaCausalGraph.of(database.schema)
    s = len(graph.dotted)
    if graph.prop_311_applies():
        checks.append(
            Check(
                "convergence bound",
                True,
                f"Prop 3.11 applies: fixpoints converge in ≤ {2 * s + 2} "
                f"iterations ({s} back-and-forth key(s))",
            )
        )
    else:
        checks.append(
            Check(
                "convergence bound",
                True,
                "some relation carries multiple back-and-forth keys; "
                "only the Θ(n) bound of Prop 3.4 applies",
            )
        )

    # 4. Size sanity.
    n = database.total_rows()
    checks.append(
        Check("size", True, f"{n} tuples across {len(database.schema.relations)} relations")
    )
    return ValidationReport(tuple(checks))


def validate_question(
    database: Database,
    question: UserQuestion,
    attributes: Sequence[str] = (),
    *,
    universal: Optional[Table] = None,
) -> ValidationReport:
    """Checks for one (question, attributes) analysis."""
    u = universal if universal is not None else universal_table(database)
    checks: List[Check] = []

    # 1. Attributes resolve and are non-null (NULL grouping values are
    # ambiguous with the cube's don't-care marker).
    from ..engine.types import is_null

    bad: List[str] = []
    for attr in attributes:
        try:
            pos = u.position(attr)
        except Exception:
            bad.append(f"{attr} (unknown)")
            continue
        if any(is_null(row[pos]) for row in u.rows()):
            bad.append(f"{attr} (contains NULL)")
    if bad:
        checks.append(Check("attributes", False, "; ".join(bad)))
    elif attributes:
        checks.append(
            Check("attributes", True, f"{len(attributes)} attributes usable")
        )

    # 2. Query evaluates on D.
    try:
        value = question.query.evaluate_universal(u)
        checks.append(Check("query", True, f"Q(D) = {value}"))
    except Exception as exc:  # surfaced, not raised: this is a report
        checks.append(Check("query", False, f"Q(D) failed: {exc}"))

    # 3. Additivity / recommended method.
    certificate = analyze_additivity(database, question.query, universal=u)
    if certificate.all_exact_cube:
        checks.append(
            Check("additivity", True, "intervention-additive: use method='cube'")
        )
    else:
        reasons = "; ".join(
            v.reason for v in certificate.verdicts if not v.additive
        )
        checks.append(
            Check(
                "additivity",
                True,
                f"not intervention-additive ({reasons}) — use "
                "method='indexed' or 'exact'",
            )
        )
    return ValidationReport(tuple(checks))
