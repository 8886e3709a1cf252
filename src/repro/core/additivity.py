"""Intervention-additivity analysis (Definition 4.2 and Section 4.1).

An aggregate query q is *intervention-additive* when
``q(D − Δ^φ) = q(D) − q(D_φ)`` for every explanation φ.  Algorithm 1
relies on this identity to read intervention degrees straight off the
data cube.  The paper gives two sufficient conditions, both of which
this module checks:

* **count(*)** (and, by the same Corollary 3.6 argument, count(expr)
  and sum(expr)) over a schema with **no back-and-forth foreign keys**:
  the residual universal table is exactly ``σ_{¬φ}(U)``, and these
  aggregates are additive over disjoint unions of rows.
* **count(distinct R_i.pk)** when some back-and-forth foreign key
  ``R_j.fk ↔ R_i.pk`` exists and **every universal row contains a
  unique tuple from R_j** (footnote 11): deletion of an R_i key is
  all-or-nothing, so distinct counts subtract cleanly.

We additionally recognize the degenerate variant of the second
condition with no back-and-forth keys at all: count(distinct R_i.pk)
where each R_i tuple occurs in exactly one universal row (e.g. a
single-table schema counting its own primary key).

The structural rules live in :mod:`repro.analysis.additivity`, whose
:class:`~repro.analysis.additivity.AdditivityCertificate` is the verdict
type; :func:`analyze_additivity` resolves the data-level uniqueness
condition against the actual universal table, so the verdict is
instance-specific, exactly like the paper's usage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..engine.database import Database
from ..engine.table import Table
from .numquery import NumericalQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.additivity import AdditivityCertificate


def analyze_additivity(
    database: Database,
    query: NumericalQuery,
    *,
    universal: Optional[Table] = None,
) -> "AdditivityCertificate":
    """Check every aggregate of *query* for intervention-additivity.

    Returns the data-resolved certificate: the footnote-11 condition is
    checked against *universal* (materialized from *database* only when
    some ``count(distinct …)`` aggregate needs it).
    """
    from ..analysis.additivity import certify_additivity

    return certify_additivity(
        database.schema, query, database=database, universal=universal
    )
