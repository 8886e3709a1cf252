"""Predicate/attribute linter with machine-readable ``RS…`` codes.

Static well-formedness checks over the candidate attributes and the
numerical query, against the schema only (no data).  Every finding is
a :class:`Diagnostic` with a stable code:

=========  ========  ================================================================
code       severity  meaning
=========  ========  ================================================================
``RS001``  error     candidate attribute unknown in the schema
``RS002``  error     unqualified candidate attribute is ambiguous
``RS003``  warning   candidate attribute listed more than once
``RS004``  warning   primary-key attribute used as explanation dimension
``RS005``  warning   foreign-key attribute used as explanation dimension
``RS006``  error     predicate constant outside the column's declared type
``RS007``  error     aggregate argument/WHERE references an unknown column
``RS009``  warning   cyclic FK join graph: only the n - 1 fallback bound is certified
=========  ========  ================================================================

RS004/RS005 are warnings, not errors: key columns *can* be explanation
dimensions (the paper's count-distinct examples group by keys), but
near-unique dimensions explode the cube and usually indicate a
mis-specified attribute list.  RS009 fires for cyclic join graphs
(``require_acyclic=False`` schemas such as TPC-H): the sharp
convergence propositions assume a join tree, so the certificate
honestly falls back to Proposition 3.4's n − 1 bound.

The table above and its twin in ``docs/analysis.md`` are rendered from
:data:`RS_CODES` (``render_code_table``); reprolint's RL008 fails CI if
either drifts from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.numquery import NumericalQuery
from ..engine.expressions import (
    And,
    Arithmetic,
    Col,
    Comparison,
    Const,
    Expression,
    Not,
    Or,
    Unary,
)
from ..engine.schema import DatabaseSchema
from ..errors import SchemaError

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: The diagnostic registry — single source of truth for every RS code.
#: The docstring table above and the table in ``docs/analysis.md`` are
#: rendered from this tuple (``render_code_table``) and checked against
#: it by reprolint's RL008; a pure literal so static tools can read it.
RS_CODES: Tuple[Tuple[str, str, str], ...] = (
    ("RS001", "error", "candidate attribute unknown in the schema"),
    ("RS002", "error", "unqualified candidate attribute is ambiguous"),
    ("RS003", "warning", "candidate attribute listed more than once"),
    ("RS004", "warning", "primary-key attribute used as explanation dimension"),
    ("RS005", "warning", "foreign-key attribute used as explanation dimension"),
    ("RS006", "error", "predicate constant outside the column's declared type"),
    ("RS007", "error", "aggregate argument/WHERE references an unknown column"),
    ("RS009", "warning", "cyclic FK join graph: only the n - 1 fallback bound is certified"),
)

_SEVERITIES: Dict[str, str] = {code: severity for code, severity, _ in RS_CODES}


def render_code_table(fmt: str = "markdown") -> str:
    """The RS code table, rendered from :data:`RS_CODES`.

    ``markdown`` is the ``docs/analysis.md`` flavour; ``rst`` is the
    module-docstring flavour.  Paste the output verbatim — RL008
    compares both documents against the registry row by row.
    """
    if fmt == "markdown":
        lines = ["| code | severity | meaning |", "| --- | --- | --- |"]
        lines += [f"| {c} | {s} | {m} |" for c, s, m in RS_CODES]
        return "\n".join(lines)
    if fmt == "rst":
        width = max(len(m) for _, _, m in RS_CODES)
        bar = f"=========  ========  {'=' * width}"
        lines = [bar, "code       severity  meaning", bar]
        lines += [f"``{c}``  {s.ljust(8)}  {m}".rstrip() for c, s, m in RS_CODES]
        lines.append(bar)
        return "\n".join(lines)
    raise ValueError(f"unknown table format {fmt!r}")


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding."""

    code: str
    severity: str  # "error" | "warning"
    message: str
    #: What the finding is about: an attribute spec, a qualified
    #: column, or an aggregate name.
    subject: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "subject": self.subject,
        }

    def __str__(self) -> str:
        return f"{self.code} {self.severity} [{self.subject}]: {self.message}"


def _diag(code: str, message: str, subject: str) -> Diagnostic:
    """A :class:`Diagnostic` whose severity comes from the registry.

    Keeping severity out of the construction sites means a code's
    severity can only ever be what :data:`RS_CODES` declares.
    """
    return Diagnostic(code, _SEVERITIES[code], message, subject)


def _dtype_accepts(dtype: str, value: object) -> bool:
    """Can *value* appear in a column declared as *dtype*?

    ``bool`` is deliberately not an ``int``/``float`` here even though
    Python says otherwise — comparing a flag column to ``1`` is almost
    always a typo for ``True``.
    """
    if dtype == "any":
        return True
    if dtype == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if dtype == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if dtype == "str":
        return isinstance(value, str)
    if dtype == "bool":
        return isinstance(value, bool)
    return True


def _column_comparisons(
    expr: Expression,
) -> Iterator[Tuple[str, object]]:
    """Yield (column, constant) pairs from column-vs-constant comparisons."""
    if isinstance(expr, Comparison):
        if isinstance(expr.left, Col) and isinstance(expr.right, Const):
            yield expr.left.name, expr.right.value
        elif isinstance(expr.left, Const) and isinstance(expr.right, Col):
            yield expr.right.name, expr.left.value
        else:
            yield from _column_comparisons(expr.left)
            yield from _column_comparisons(expr.right)
    elif isinstance(expr, Arithmetic):
        yield from _column_comparisons(expr.left)
        yield from _column_comparisons(expr.right)
    elif isinstance(expr, Unary):
        yield from _column_comparisons(expr.operand)
    elif isinstance(expr, Not):
        yield from _column_comparisons(expr.operand)
    elif isinstance(expr, (And, Or)):
        for part in expr.operands:
            yield from _column_comparisons(part)


def _resolve(
    schema: DatabaseSchema, spec: str
) -> Optional[Tuple[str, str]]:
    """``schema.qualified`` without the exception control flow."""
    try:
        return schema.qualified(spec)
    except SchemaError:
        return None


def _lint_attribute(
    schema: DatabaseSchema, spec: str
) -> Iterator[Diagnostic]:
    resolved = _resolve(schema, spec)
    if resolved is None:
        if "." not in spec and len(schema.attribute_owner(spec)) > 1:
            owners = ", ".join(schema.attribute_owner(spec))
            yield _diag(
                "RS002",
                f"attribute {spec!r} is ambiguous (declared by {owners}); "
                "qualify it as Relation.attribute",
                spec,
            )
        else:
            yield _diag(
                "RS001",
                f"attribute {spec!r} does not resolve to any relation "
                "column in the schema",
                spec,
            )
        return
    rel_name, attr = resolved
    relation = schema.relation(rel_name)
    if attr in relation.primary_key:
        yield _diag(
            "RS004",
            f"{rel_name}.{attr} is (part of) the primary key of "
            f"{rel_name}; key columns make near-unique explanation "
            "dimensions and explode the cube",
            spec,
        )
    for fk in schema.foreign_keys_from(rel_name):
        if attr in fk.source_attrs:
            yield _diag(
                "RS005",
                f"{rel_name}.{attr} is a foreign-key attribute ({fk}); "
                "explanations over raw key values rarely generalize",
                spec,
            )
            break


def _universal_column_exists(schema: DatabaseSchema, column: str) -> bool:
    """Does *column* name a column of the universal table?

    Universal columns are qualified ``Relation.attr``; bare names are
    accepted when unambiguous (mirroring ``DatabaseSchema.qualified``).
    """
    return _resolve(schema, column) is not None


def _declared_dtype(schema: DatabaseSchema, column: str) -> Optional[str]:
    resolved = _resolve(schema, column)
    if resolved is None:
        return None
    rel_name, attr = resolved
    for attribute in schema.relation(rel_name).attributes:
        if attribute.name == attr:
            return attribute.dtype
    return None


def _lint_query(
    schema: DatabaseSchema, query: NumericalQuery
) -> Iterator[Diagnostic]:
    for q in query.aggregates:
        argument = q.aggregate.argument
        if argument is not None and not _universal_column_exists(
            schema, argument
        ):
            yield _diag(
                "RS007",
                f"aggregate {q.name} argument {argument!r} is not a "
                "universal-table column",
                q.name,
            )
        if q.where is None:
            continue
        for column in q.where.columns():
            if not _universal_column_exists(schema, column):
                yield _diag(
                    "RS007",
                    f"aggregate {q.name} WHERE references unknown column "
                    f"{column!r}",
                    q.name,
                )
        for column, constant in _column_comparisons(q.where):
            dtype = _declared_dtype(schema, column)
            if dtype is None:
                continue  # unknown column already reported as RS007
            if not _dtype_accepts(dtype, constant):
                yield _diag(
                    "RS006",
                    f"aggregate {q.name} compares {column} (declared "
                    f"{dtype!r}) against {constant!r} "
                    f"({type(constant).__name__}); the predicate can "
                    "never hold",
                    column,
                )


def lint_plan(
    schema: DatabaseSchema,
    query: Optional[NumericalQuery],
    attributes: Sequence[str],
) -> Tuple[Diagnostic, ...]:
    """All diagnostics for one (schema, query, attributes) plan.

    Errors come first, then warnings, preserving discovery order
    within each severity.
    """
    findings: List[Diagnostic] = []
    seen: Dict[str, int] = {}
    for spec in attributes:
        seen[spec] = seen.get(spec, 0) + 1
        if seen[spec] == 2:  # report once per duplicated spec
            findings.append(
                _diag(
                    "RS003",
                    f"attribute {spec!r} listed more than once; duplicate "
                    "dimensions add no explanations",
                    spec,
                )
            )
    for spec in dict.fromkeys(attributes):
        findings.extend(_lint_attribute(schema, spec))
    if query is not None:
        findings.extend(_lint_query(schema, query))
    if not schema.join_graph_is_tree:
        findings.append(
            _diag(
                "RS009",
                "the foreign-key join graph is cyclic "
                "(require_acyclic=False schema), so the sharp convergence "
                "propositions (3.5/3.10/3.11) do not apply and only the "
                "Proposition 3.4 n - 1 fallback bound is certified; "
                "expect the fixpoint to stop far earlier, but no tighter "
                "promise is proven",
                "schema",
            )
        )
    errors = [d for d in findings if d.severity == SEVERITY_ERROR]
    warnings = [d for d in findings if d.severity != SEVERITY_ERROR]
    return tuple(errors + warnings)
