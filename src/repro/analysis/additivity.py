"""Per-aggregate additivity certification (Definition 4.2, Section 4.1).

Algorithm 1 reads intervention degrees off the data cube only when the
query is *intervention-additive*: ``q(D − Δ^φ) = q(D) − q(D_φ)``.  The
paper's two sufficient conditions split into a purely static part (the
aggregate kind and the presence of back-and-forth keys) and one
data-dependent condition (footnote 11's "unique source tuple per
universal row").  :func:`certify_additivity` evaluates the static part
always and the data condition when a database (or universal table) is
supplied, yielding one of three verdicts per aggregate:

* ``exact-cube`` — the additive identity is certified; Algorithm 1's
  cube produces exact intervention degrees;
* ``needs-iterative`` — additivity does not hold (or cannot be
  certified statically); exact degrees require running program P per
  candidate (the ``indexed``/``exact`` methods);
* ``unsupported`` — the aggregate kind has no additivity rule at all
  (avg, min, max, …); exact degrees again require program P per
  candidate.

The certificate is the one additivity verdict type:
:func:`repro.core.additivity.analyze_additivity` returns it
data-resolved, and ``NotAdditiveError`` carries its :meth:`explain`
text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..core.numquery import AggregateQuery, NumericalQuery
from ..engine.schema import DatabaseSchema
from ..errors import NotAdditiveError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.database import Database
    from ..engine.table import Table

VERDICT_EXACT_CUBE = "exact-cube"
VERDICT_NEEDS_ITERATIVE = "needs-iterative"
VERDICT_UNSUPPORTED = "unsupported"

#: Kinds covered by the Corollary 3.6 argument (additive over disjoint
#: unions of universal rows).
_ADDITIVE_KINDS = ("count_star", "count", "sum")


@dataclass(frozen=True)
class AggregateVerdict:
    """Verdict for one aggregate query ``q_j``."""

    name: str
    kind: str
    verdict: str  # one of the VERDICT_* constants
    reason: str
    #: The paper artifact backing the verdict, when one applies.
    rule: Optional[str] = None
    #: Unresolved data-level condition (footnote 11) in prose, set when
    #: the verdict hinges on data that was not supplied.
    data_condition: Optional[str] = None

    @property
    def additive(self) -> bool:
        """True iff the cube identity is certified for this aggregate."""
        return self.verdict == VERDICT_EXACT_CUBE

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "reason": self.reason,
            "rule": self.rule,
            "data_condition": self.data_condition,
        }


@dataclass(frozen=True)
class AdditivityCertificate:
    """Verdicts for every aggregate plus the method they certify."""

    verdicts: Tuple[AggregateVerdict, ...]
    #: True when the data-level conditions were checked against an
    #: actual universal table (instance-specific certificate).
    data_resolved: bool

    @property
    def all_exact_cube(self) -> bool:
        """True iff Algorithm 1's cube is certified exact for Q."""
        return all(v.verdict == VERDICT_EXACT_CUBE for v in self.verdicts)

    @property
    def recommended_method(self) -> str:
        """The fastest evaluation method this certificate deems sound.

        ``cube`` when every aggregate is certified additive; otherwise
        ``indexed``, which runs program P per candidate and is exact for
        every aggregate kind.
        """
        return "cube" if self.all_exact_cube else "indexed"

    def explain(self) -> str:
        """A readable multi-line summary."""
        lines = [
            f"  {v.name}: {'additive' if v.additive else 'NOT additive'} — {v.reason}"
            for v in self.verdicts
        ]
        verdict = (
            "intervention-additive"
            if self.all_exact_cube
            else "NOT intervention-additive"
        )
        return f"query is {verdict}:\n" + "\n".join(lines)

    def raise_if_not_additive(self) -> None:
        """Raise :class:`NotAdditiveError` unless all parts are additive."""
        if not self.all_exact_cube:
            raise NotAdditiveError(self.explain())

    def to_dict(self) -> Dict[str, object]:
        return {
            "verdicts": [v.to_dict() for v in self.verdicts],
            "data_resolved": self.data_resolved,
            "all_exact_cube": self.all_exact_cube,
            "recommended_method": self.recommended_method,
        }


def _unqualify(column: str) -> Tuple[Optional[str], str]:
    """Split a possibly-qualified column into (relation, attribute)."""
    if "." in column:
        rel, attr = column.split(".", 1)
        return rel, attr
    return None, column


def _relation_unique_in_universal(
    schema: DatabaseSchema, universal: "Table", relation: str
) -> bool:
    """True iff each tuple of *relation* occurs in exactly one U row."""
    rs = schema.relation(relation)
    qualified = [f"{relation}.{a}" for a in rs.attribute_names]
    bag = universal.project(qualified, distinct=False)
    return len(bag) == len(set(bag.rows()))


def _where_columns_outside(
    q: AggregateQuery, rel_name: str
) -> Tuple[str, ...]:
    """WHERE columns of *q* that do not live on the counted relation."""
    if q.where is None:
        return ()
    outside = [
        column
        for column in q.where.columns()
        if _unqualify(column)[0] != rel_name
    ]
    return tuple(dict.fromkeys(outside))


def _key_determines_columns(
    universal: "Table", key: str, columns: Tuple[str, ...]
) -> bool:
    """True iff *key* functionally determines *columns* in the universal
    table — each key value co-occurs with exactly one combination of
    the column values."""
    if not columns:
        return True
    keyed = universal.project([key], distinct=True)
    extended = universal.project([key, *columns], distinct=True)
    return len(extended) == len(keyed)


def _where_fd_failure(
    q: AggregateQuery, rel_name: str, attr: str, outside: Tuple[str, ...]
) -> AggregateVerdict:
    """The verdict when the WHERE predicate breaks footnote 11.

    A WHERE column outside the counted relation that the counted key
    does not determine lets one key value appear both inside and
    outside ``σ_w(U)``; removing a universal row then changes the
    count by a non-additive amount, so the cube identity fails.
    """
    return AggregateVerdict(
        q.name,
        q.aggregate.kind,
        VERDICT_NEEDS_ITERATIVE,
        f"count(distinct {rel_name}.{attr}) filters on "
        f"{', '.join(outside)}, which the counted key does not "
        f"functionally determine: one {attr} value can satisfy the "
        "WHERE predicate through some universal rows but not others, "
        "so per-group counts are not additive under intervention "
        "(footnote 11)",
        rule="footnote 11",
    )


def _certify_count_distinct(
    schema: DatabaseSchema,
    q: AggregateQuery,
    universal: Optional["Table"],
) -> AggregateVerdict:
    kind = q.aggregate.kind
    rel_name, attr = _unqualify(q.aggregate.argument or "")
    if rel_name is None or not schema.has_relation(rel_name):
        return AggregateVerdict(
            q.name,
            kind,
            VERDICT_NEEDS_ITERATIVE,
            f"count(distinct {q.aggregate.argument}) argument is not a "
            "qualified relation column",
        )
    target = schema.relation(rel_name)
    if tuple(target.primary_key) != (attr,):
        return AggregateVerdict(
            q.name,
            kind,
            VERDICT_NEEDS_ITERATIVE,
            f"count(distinct {rel_name}.{attr}) does not count "
            f"{rel_name}'s primary key {target.primary_key}",
        )
    counted_key = f"{rel_name}.{attr}"
    outside = _where_columns_outside(q, rel_name)
    fd_condition = (
        f"; and {counted_key} functionally determines the WHERE "
        f"columns {', '.join(outside)}"
        if outside
        else ""
    )
    # Footnote 11 condition: a b&f key into rel_name whose source
    # relation is unique per universal row — and the aggregate's WHERE
    # predicate must not discriminate between universal rows sharing a
    # counted-key value (the key functionally determines every WHERE
    # column outside the counted relation).
    for fk in schema.back_and_forth_keys:
        if fk.target != rel_name:
            continue
        condition = (
            f"every universal row contains a unique {fk.source} tuple "
            f"(footnote 11){fd_condition}"
        )
        if universal is None:
            return AggregateVerdict(
                q.name,
                kind,
                VERDICT_NEEDS_ITERATIVE,
                f"count(distinct {rel_name}.{attr}) with back-and-forth "
                f"key {fk} is additive only under a data condition that "
                "was not checked (no database supplied)",
                rule="footnote 11",
                data_condition=condition,
            )
        if not _key_determines_columns(universal, counted_key, outside):
            return _where_fd_failure(q, rel_name, attr, outside)
        if _relation_unique_in_universal(schema, universal, fk.source):
            return AggregateVerdict(
                q.name,
                kind,
                VERDICT_EXACT_CUBE,
                f"count(distinct {rel_name}.{attr}) with back-and-forth "
                f"key {fk} and unique {fk.source} tuples per universal "
                "row (footnote 11)",
                rule="footnote 11",
            )
        return AggregateVerdict(
            q.name,
            kind,
            VERDICT_NEEDS_ITERATIVE,
            f"back-and-forth key {fk} found but {fk.source} tuples "
            "repeat across universal rows",
            rule="footnote 11",
        )
    if not schema.has_back_and_forth:
        condition = (
            f"each {rel_name} tuple occurs in exactly one universal "
            f"row{fd_condition}"
        )
        if universal is None:
            return AggregateVerdict(
                q.name,
                kind,
                VERDICT_NEEDS_ITERATIVE,
                f"count(distinct {rel_name}.{attr}) with no back-and-forth "
                "keys is additive only under a data condition that was "
                "not checked (no database supplied)",
                rule="footnote 11",
                data_condition=condition,
            )
        if not _key_determines_columns(universal, counted_key, outside):
            return _where_fd_failure(q, rel_name, attr, outside)
        if _relation_unique_in_universal(schema, universal, rel_name):
            return AggregateVerdict(
                q.name,
                kind,
                VERDICT_EXACT_CUBE,
                f"count(distinct {rel_name}.{attr}) with no back-and-forth "
                f"keys and unique {rel_name} tuples per universal row",
                rule="footnote 11",
            )
    return AggregateVerdict(
        q.name,
        kind,
        VERDICT_NEEDS_ITERATIVE,
        f"no back-and-forth key into {rel_name} and {rel_name} tuples "
        "are not unique per universal row",
    )


def _certify_aggregate(
    schema: DatabaseSchema,
    q: AggregateQuery,
    universal: Optional["Table"],
) -> AggregateVerdict:
    kind = q.aggregate.kind
    if kind in _ADDITIVE_KINDS:
        if not schema.has_back_and_forth:
            return AggregateVerdict(
                q.name,
                kind,
                VERDICT_EXACT_CUBE,
                f"{kind} with no back-and-forth foreign keys "
                "(Corollary 3.6: U(D-Δ) = σ_¬φ(U))",
                rule="Corollary 3.6",
            )
        return AggregateVerdict(
            q.name,
            kind,
            VERDICT_NEEDS_ITERATIVE,
            f"{kind} is not additive in the presence of back-and-forth "
            "foreign keys (Section 4.1)",
            rule="Section 4.1",
        )
    if kind == "count_distinct":
        return _certify_count_distinct(schema, q, universal)
    return AggregateVerdict(
        q.name,
        kind,
        VERDICT_UNSUPPORTED,
        f"aggregate kind {kind!r} is never intervention-additive",
    )


def certify_additivity(
    schema: DatabaseSchema,
    query: NumericalQuery,
    *,
    database: Optional["Database"] = None,
    universal: Optional["Table"] = None,
) -> AdditivityCertificate:
    """Certify each aggregate of *query* as exact-cube / needs-iterative
    / unsupported.

    Purely static when neither *database* nor *universal* is given; the
    footnote-11 data condition is then reported as unresolved (and the
    verdict stays conservative).  Passing either resolves it against
    the actual instance.

    The universal table is materialized lazily — only when some
    ``count(distinct …)`` aggregate actually needs the data condition.
    """
    u = universal
    needs_data = any(
        q.aggregate.kind == "count_distinct" for q in query.aggregates
    )
    if u is None and database is not None and needs_data:
        from ..engine.universal import universal_table

        u = universal_table(database)
    verdicts = tuple(
        _certify_aggregate(schema, q, u) for q in query.aggregates
    )
    return AdditivityCertificate(
        verdicts=verdicts,
        data_resolved=u is not None or not needs_data,
    )
