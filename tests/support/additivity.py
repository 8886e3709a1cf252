"""Empirical additivity audit: the ground truth Algorithm 1 assumes.

Section 4.1's sufficient conditions (checked by
:func:`repro.core.additivity.analyze_additivity`) do not cover the
interaction between each aggregate's WHERE predicate and φ.  This audit
runs program P for each explanation and compares the cube identity
``q(D) − q(D_φ)`` with ``q(D − Δ^φ)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.intervention import FixpointStrategy
from repro.core.numquery import NumericalQuery
from repro.engine.database import Database
from repro.engine.table import Table
from repro.engine.universal import universal_table


@dataclass(frozen=True)
class AdditivitySlack:
    """Empirical additivity audit for one (aggregate, explanation) pair.

    ``slack = (q(D) − q(D_φ)) − q(D − Δ^φ)``: zero when the additive
    identity is exact; positive when the cube over-estimates the
    residual value (the footnote-11 boundary).
    """

    aggregate: str
    phi: str
    q_d: object
    q_phi: object
    q_residual: object
    slack: float


def audit_additivity(
    database: Database,
    query: NumericalQuery,
    phis,
    *,
    universal: Optional[Table] = None,
) -> List[AdditivitySlack]:
    """Per aggregate and explanation in *phis*, the additivity slack."""
    u = universal if universal is not None else universal_table(database)
    engine = FixpointStrategy(database, universal=u)
    results: List[AdditivitySlack] = []
    originals = {q.name: q.evaluate(u) for q in query.aggregates}
    for phi in phis:
        delta = engine.compute(phi).delta
        residual_u = universal_table(database.subtract(delta))
        restricted = u.filter(phi.to_expression())
        for q in query.aggregates:
            q_d = originals[q.name]
            q_phi = q.evaluate(restricted)
            q_residual = q.evaluate(residual_u)
            slack = 0.0
            if all(
                isinstance(v, (int, float))
                for v in (q_d, q_phi, q_residual)
            ):
                slack = (q_d - q_phi) - q_residual
            results.append(
                AdditivitySlack(
                    aggregate=q.name,
                    phi=str(phi),
                    q_d=q_d,
                    q_phi=q_phi,
                    q_residual=q_residual,
                    slack=slack,
                )
            )
    return results
