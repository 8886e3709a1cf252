"""Render the framework's computations as SQL and datalog text.

The paper's prototype pushes everything into the DBMS (Section 4:
"the entire computation can be pushed inside the database engine").
Our engine executes the plans natively, but for documentation,
debugging, and porting to a real DBMS this module renders:

* the universal-relation join (``FROM … JOIN … ON fk = pk``);
* each aggregate query ``q_j`` as a SELECT over that join;
* the per-aggregate cube queries (``GROUP BY … WITH CUBE``);
* Algorithm 1's script — cube materialization, the NULL→dummy
  UPDATEs, the m-way full outer join, and the μ columns;
* program **P** as the datalog program of Proposition 3.2.

Every rendering function takes a ``dialect``:

* ``"sqlserver"`` (default) — the paper's prototype dialect, with
  ``GROUP BY … WITH CUBE``;
* ``"sqlite"`` — executable SQL: the cube becomes a ``UNION ALL`` over
  all 2^d grouping sets (SQLite has no CUBE/GROUPING SETS), and the
  full outer join requires SQLite ≥ 3.39;
* ``"duckdb"`` — executable SQL: the cube becomes ``GROUP BY GROUPING
  SETS``, and the join uses ``IS NOT DISTINCT FROM`` instead of the
  dummy-constant UPDATEs (DuckDB columns are strictly typed, so a
  string dummy cannot be written into a numeric grouping column).

The SQL Server output is tested against golden fragments; the SQLite
output is tested by *executing* it against an in-memory database (see
``tests/core/test_sqlgen.py``).  :mod:`repro.backends` builds on these
primitives to run Algorithm 1 inside a real DBMS.
"""

# reprolint: disable=RL006 (this module IS the sqlgen layer: the remaining bare holes interpolate aggregate-query names and table aliases that the schema layer validated as identifiers, into display-oriented SQL Server/datalog text that is never executed — the executable dialects route through qid()/sql_literal())

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..engine.aggregates import AggregateSpec
from ..engine.cube import grouping_sets
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
from ..engine.types import Value, is_null
from ..engine.universal import JoinTree
from ..errors import QueryError
from .numquery import AggregateQuery
from .predicates import Predicate
from .question import UserQuestion

DUMMY_SQL = "'__DUMMY__'"

DIALECTS = ("sqlserver", "sqlite", "duckdb")


def _check_dialect(dialect: str) -> None:
    if dialect not in DIALECTS:
        raise QueryError(
            f"unknown SQL dialect {dialect!r}; choose from {DIALECTS}"
        )


def sql_literal(value: Value) -> str:
    """Render a Python value as a SQL literal."""
    if value is None or is_null(value):
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def sql_expression(
    expr: Expression,
    dialect: str = "sqlserver",
    render_col: Optional[Callable[[str], str]] = None,
) -> str:
    """Render an engine expression as SQL text.

    ``render_col`` customizes column-reference rendering (the backends
    quote universal-view columns, whose names contain dots); the
    default renders bare names, which parse as ``table.attr``
    references over the base-table join of
    :func:`universal_from_clause`.
    """
    _check_dialect(dialect)
    col = render_col if render_col is not None else (lambda name: name)

    def render(expr: Expression) -> str:
        if isinstance(expr, Const):
            return sql_literal(expr.value)
        if isinstance(expr, Col):
            return col(expr.name)
        if isinstance(expr, Arithmetic):
            return f"({render(expr.left)} {expr.op} {render(expr.right)})"
        if isinstance(expr, Unary):
            if expr.op == "neg":
                return f"(-{render(expr.operand)})"
            name = expr.op.upper()
            if expr.op == "log" and dialect in ("sqlite", "duckdb"):
                # LOG is base-10 in both dialects; the engine's log is
                # natural, which is LN there (SQL Server's LOG is
                # already natural).
                name = "LN"
            return f"{name}({render(expr.operand)})"
        if isinstance(expr, Comparison):
            op = "<>" if expr.op == "!=" else expr.op
            return f"{render(expr.left)} {op} {render(expr.right)}"
        if isinstance(expr, And):
            if not expr.operands:
                return "TRUE"
            return " AND ".join(f"({render(o)})" for o in expr.operands)
        if isinstance(expr, Or):
            if not expr.operands:
                return "FALSE"
            return " OR ".join(f"({render(o)})" for o in expr.operands)
        if isinstance(expr, Not):
            return f"NOT ({render(expr.operand)})"
        raise QueryError(
            f"cannot render expression of type {type(expr).__name__}"
        )

    return render(expr)


def aggregate_sql(
    spec: AggregateSpec,
    render_col: Optional[Callable[[str], str]] = None,
) -> str:
    """One aggregate spec as a SQL aggregate expression."""
    col = render_col if render_col is not None else (lambda name: name)
    if spec.kind == "count_star":
        return "COUNT(*)"
    if spec.kind == "count_distinct":
        return f"COUNT(DISTINCT {col(spec.argument)})"
    if spec.kind == "count":
        return f"COUNT({col(spec.argument)})"
    return f"{spec.kind.upper()}({col(spec.argument)})"


def _column_alias(qualified: str) -> str:
    """``Author.name`` -> ``Author_name`` (legal SQL identifier)."""
    return qualified.replace(".", "_")


def universal_from_clause(schema: DatabaseSchema) -> str:
    """The FROM clause joining all relations along the FK tree.

    Cycle-closing foreign keys of a ``require_acyclic=False`` schema
    (the join tree's residual edges) are folded into the ON clause of
    whichever side joins later, so the rendered join still enforces
    every declared key without needing a WHERE clause (callers append
    their own).
    """
    tree = JoinTree(schema)
    position = {
        name: i for i, (name, _) in enumerate(tree.traversal_order)
    }
    lines: List[str] = []
    for name, fk in tree.traversal_order:
        if fk is None:
            lines.append(f"FROM {name}")
            continue
        other = fk.target if fk.source == name else fk.source
        conditions = []
        if name == fk.source:
            pairs = zip(fk.source_attrs, fk.target_attrs)
            conditions = [
                f"{name}.{s} = {other}.{t}" for s, t in pairs
            ]
        else:
            pairs = zip(fk.source_attrs, fk.target_attrs)
            conditions = [
                f"{other}.{s} = {name}.{t}" for s, t in pairs
            ]
        lines.append(
            f"  JOIN {name} ON " + " AND ".join(conditions)
        )
    for fk in tree.residual_edges:
        later = max(position[fk.source], position[fk.target])
        extra = " AND ".join(
            f"{fk.source}.{s} = {fk.target}.{t}"
            for s, t in zip(fk.source_attrs, fk.target_attrs)
        )
        lines[later] += f" AND {extra}"
    return "\n".join(lines)


def aggregate_select(
    schema: DatabaseSchema, q: AggregateQuery, dialect: str = "sqlserver"
) -> str:
    """One ``q_j`` as a SELECT statement over the universal join."""
    _check_dialect(dialect)
    select = aggregate_sql(q.aggregate)
    lines = [f"SELECT {select} AS {q.name}", universal_from_clause(schema)]
    if q.where is not None:
        lines.append(f"WHERE {sql_expression(q.where, dialect)}")
    return "\n".join(lines) + ";"


def cube_select(
    schema: DatabaseSchema,
    q: AggregateQuery,
    attributes: Sequence[str],
    dialect: str = "sqlserver",
) -> str:
    """The per-aggregate cube of Algorithm 1 step 2.

    Output grouping columns are aliased to legal identifiers
    (``Author.name`` → ``Author_name``) so that the dummy-rewrite
    UPDATEs and the m-way join of :func:`algorithm1_script` can refer
    to them.  The SQL Server dialect renders ``GROUP BY … WITH CUBE``;
    DuckDB gets ``GROUP BY GROUPING SETS``; SQLite, which has neither,
    gets the equivalent ``UNION ALL`` over all 2^d grouping sets.
    """
    _check_dialect(dialect)
    select_agg = aggregate_sql(q.aggregate)
    from_clause = universal_from_clause(schema)
    where = (
        f"WHERE {sql_expression(q.where, dialect)}"
        if q.where is not None
        else None
    )
    attr_list = ", ".join(attributes)
    select_attrs = ", ".join(
        f"{a} AS {_column_alias(a)}" for a in attributes
    )
    if dialect == "sqlite":
        arms: List[str] = []
        for kept in grouping_sets(attributes):
            kept_set = set(kept)
            cols = ", ".join(
                f"{a} AS {_column_alias(a)}"
                if a in kept_set
                else f"NULL AS {_column_alias(a)}"
                for a in attributes
            )
            lines = [f"SELECT {cols}, {select_agg} AS v_{q.name}", from_clause]
            if where:
                lines.append(where)
            if kept:
                lines.append(f"GROUP BY {', '.join(kept)}")
            arms.append("\n".join(lines))
        return "\nUNION ALL\n".join(arms) + ";"
    lines = [f"SELECT {select_attrs}, {select_agg} AS v_{q.name}", from_clause]
    if where:
        lines.append(where)
    if dialect == "duckdb":
        sets = ", ".join(
            "(" + ", ".join(kept) + ")" for kept in grouping_sets(attributes)
        )
        lines.append(f"GROUP BY GROUPING SETS ({sets})")
    else:
        lines.append(f"GROUP BY {attr_list} WITH CUBE")
    return "\n".join(lines) + ";"


def algorithm1_script(
    schema: DatabaseSchema,
    question: UserQuestion,
    attributes: Sequence[str],
    dialect: str = "sqlserver",
) -> str:
    """The full Algorithm 1 as a SQL script (cubes, dummy rewrite,
    m-way full outer join, μ columns).

    The ``sqlserver`` and ``sqlite`` scripts perform the paper's
    NULL→dummy UPDATEs and then join with plain equality; the
    ``duckdb`` script skips the rewrite (strictly typed columns) and
    joins with the null-safe ``IS NOT DISTINCT FROM`` instead.  The
    sqlite script executes as-is on SQLite ≥ 3.39 (full outer join
    support).
    """
    _check_dialect(dialect)
    query = question.query
    parts: List[str] = ["-- Algorithm 1: explanation table M", ""]
    parts.append("-- Step 1: original aggregate values u_j")
    for q in query.aggregates:
        parts.append(f"-- u_{q.name}:")
        parts.append(aggregate_select(schema, q, dialect))
        parts.append("")
    parts.append("-- Step 2: one cube per aggregate query")
    for q in query.aggregates:
        parts.append(f"CREATE TABLE C_{q.name} AS")
        parts.append(cube_select(schema, q, attributes, dialect))
        parts.append("")
    names = [q.name for q in query.aggregates]
    aliases = [_column_alias(a) for a in attributes]
    if dialect == "duckdb":
        parts.append(
            "-- Step 2b: (dummy rewrite skipped: DuckDB columns are "
            "strictly typed; the join below uses IS NOT DISTINCT FROM)"
        )

        def key_eq(left: str, right: str) -> str:
            return f"{left} IS NOT DISTINCT FROM {right}"

    else:
        parts.append("-- Step 2b: NULL -> dummy rewrite (Section 4.2)")
        for q in query.aggregates:
            for alias in aliases:
                parts.append(
                    f"UPDATE C_{q.name} SET {alias} = {DUMMY_SQL} "
                    f"WHERE {alias} IS NULL;"
                )

        def key_eq(left: str, right: str) -> str:
            return f"{left} = {right}"

    parts.append("")
    parts.append("-- Step 3: full outer join of the cubes on the attributes")
    from_clause = f"FROM C_{names[0]}"
    for i, other in enumerate(names[1:], start=1):
        joined_so_far = names[:i]
        conditions = []
        for alias in aliases:
            refs = [f"C_{n}.{alias}" for n in joined_so_far]
            left = refs[0] if len(refs) == 1 else f"COALESCE({', '.join(refs)})"
            conditions.append(key_eq(left, f"C_{other}.{alias}"))
        from_clause += (
            f"\n  FULL OUTER JOIN C_{other} ON " + " AND ".join(conditions)
        )
    v_parts = []
    for q in query.aggregates:
        default = q.aggregate.default_value
        if is_null(default):
            v_parts.append(f"v_{q.name}")
        else:
            v_parts.append(
                f"COALESCE(v_{q.name}, {sql_literal(default)}) AS v_{q.name}"
            )
    key_parts = []
    for alias in aliases:
        refs = [f"C_{n}.{alias}" for n in names]
        if len(refs) == 1:
            key_parts.append(f"{refs[0]} AS {alias}")
        else:
            key_parts.append(f"COALESCE({', '.join(refs)}) AS {alias}")
    parts.append("CREATE TABLE M AS")
    parts.append(f"SELECT {', '.join(key_parts)}, {', '.join(v_parts)}")
    parts.append(from_clause + ";")
    parts.append("")
    parts.append("-- Step 4: degree columns")
    parts.append(
        f"-- mu_interv = {question.intervention_sign} * "
        f"E(u_1 - v_1, ..., u_m - v_m)"
    )
    parts.append(
        f"-- mu_aggr   = {question.aggravation_sign} * E(v_1, ..., v_m)"
    )
    parts.append(f"--   where E = {sql_expression(query.expression, dialect)}")
    return "\n".join(parts)


# -- Section 4.3: top-K pushed into a window function -----------------------


def topk_select(
    mu_column: str,
    attributes: Sequence[str],
    *,
    k: int,
    minimality: str = "general",
    dialect: str = "sqlserver",
    table: str = "M",
    render_col: Optional[Callable[[str], str]] = None,
    dummy_is_null: Optional[bool] = None,
) -> str:
    """Plain top-K over a materialized *M* as one window query.

    Renders the Section 4.3 No-Minimal ranking — the exact order of
    :func:`repro.core.topk.top_k_no_minimal` — as ``ROW_NUMBER() OVER``
    so a DBMS holding *M* can answer top-K without shipping the table
    back.  The ORDER BY replicates the in-memory best-first order:

    1. degree descending (rows with an undefined degree are filtered);
    2. the condition count — ascending under ``minimality="general"``
       (fewer conditions win; the paper's dummy trick), descending
       under ``"specific"`` (footnote 12);
    3. per attribute, the don't-care marker sorts above every real
       value, then the raw value descending — the deterministic
       tie-break of the in-memory path.

    The all-dummy row (the trivial explanation) is excluded, matching
    the in-memory eligibility filter.  *dummy_is_null* selects the
    don't-care encoding: the string dummy constant (SQL Server/SQLite
    after the Section 4.2 rewrite; the default) or in-database NULL
    (DuckDB's strictly typed columns).  Because every M row has a
    distinct attribute tuple the order is a strict total order, so the
    rendered ranking matches the in-memory one tie-for-tie.
    """
    _check_dialect(dialect)
    if minimality not in ("general", "specific"):
        raise QueryError(
            f"minimality must be 'general' or 'specific', got {minimality!r}"
        )
    if k < 0:
        raise QueryError(f"k must be non-negative, got {k}")
    col = render_col if render_col is not None else (lambda name: name)
    if dummy_is_null is None:
        dummy_is_null = dialect == "duckdb"

    def dummy_test(name: str) -> str:
        if dummy_is_null:
            return f"{col(name)} IS NULL"
        return f"({col(name)} IS NULL OR {col(name)} = {DUMMY_SQL})"

    conditions = " + ".join(
        f"(CASE WHEN {dummy_test(a)} THEN 0 ELSE 1 END)" for a in attributes
    )
    cond_dir = "ASC" if minimality == "general" else "DESC"
    order_terms = [f"{col(mu_column)} DESC", f"({conditions}) {cond_dir}"]
    for a in attributes:
        order_terms.append(
            f"(CASE WHEN {dummy_test(a)} THEN 1 ELSE 0 END) DESC"
        )
        order_terms.append(f"{col(a)} DESC")
    select_list = ", ".join(col(a) for a in attributes)
    all_dummy = " AND ".join(dummy_test(a) for a in attributes)
    lines = [
        f"SELECT {select_list}, {col(mu_column)}, rn",
        "FROM (",
        f"  SELECT {select_list}, {col(mu_column)},",
        "         ROW_NUMBER() OVER (",
        "           ORDER BY " + ",\n                    ".join(order_terms),
        "         ) AS rn",
        f"  FROM {table}",
        f"  WHERE {col(mu_column)} IS NOT NULL",
        f"    AND NOT ({all_dummy})",
        ") AS ranked",
        f"WHERE rn <= {k}",
        "ORDER BY rn;",
    ]
    return "\n".join(lines)


# -- Proposition 3.2: program P in datalog ---------------------------------


def _vars_for(schema: DatabaseSchema, relation: str) -> List[str]:
    """Datalog variable names: shared across relations via FK equality.

    Each attribute gets an uppercase variable; foreign-key-linked
    attributes reuse the referenced attribute's variable so the join is
    expressed by repetition, as in the paper's rewriting.
    """
    # Union-find over (relation, attribute) pairs linked by FKs.
    parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for fk in schema.foreign_keys:
        for s, t in zip(fk.source_attrs, fk.target_attrs):
            union((fk.source, s), (fk.target, t))

    def var_name(rel: str, attr: str) -> str:
        root_rel, root_attr = find((rel, attr))
        return f"{root_attr.upper()}_{root_rel.upper()}"

    rs = schema.relation(relation)
    return [var_name(relation, a) for a in rs.attribute_names]


def program_p_datalog(
    schema: DatabaseSchema, phi: Optional[Predicate] = None
) -> str:
    """Program **P** as the datalog program of Proposition 3.2.

    ``phi`` customizes the ¬φ literal in the S_i rules; omitted, the
    literal is the symbolic ``not phi(...)``.
    """
    phi_text = (
        f"not [{phi}]" if phi is not None else "not phi(...)"
    )
    all_atoms = ", ".join(
        f"{r.name}({', '.join(_vars_for(schema, r.name))})"
        for r in schema.relations
    )
    lines: List[str] = ["% Program P (Proposition 3.2)"]
    lines.append("% Rule (i): seeds")
    for r in schema.relations:
        vs = ", ".join(_vars_for(schema, r.name))
        lines.append(f"S_{r.name}({vs}) :- {all_atoms}, {phi_text}.")
    for r in schema.relations:
        vs = ", ".join(_vars_for(schema, r.name))
        lines.append(f"Delta_{r.name}({vs}) :- {r.name}({vs}), not S_{r.name}({vs}).")
    lines.append("% Rule (ii): semijoin reduction")
    body_ii = ", ".join(
        f"{r.name}({', '.join(_vars_for(schema, r.name))}), "
        f"not Delta_{r.name}({', '.join(_vars_for(schema, r.name))})"
        for r in schema.relations
    )
    for r in schema.relations:
        vs = ", ".join(_vars_for(schema, r.name))
        lines.append(f"T_{r.name}({vs}) :- {body_ii}.")
    for r in schema.relations:
        vs = ", ".join(_vars_for(schema, r.name))
        lines.append(
            f"Delta_{r.name}({vs}) :- {r.name}({vs}), not T_{r.name}({vs})."
        )
    lines.append("% Rule (iii): backward cascade along back-and-forth keys")
    for fk in schema.back_and_forth_keys:
        tgt_vs = ", ".join(_vars_for(schema, fk.target))
        src_vs = ", ".join(_vars_for(schema, fk.source))
        lines.append(
            f"Delta_{fk.target}({tgt_vs}) :- {fk.target}({tgt_vs}), "
            f"Delta_{fk.source}({src_vs})."
        )
    return "\n".join(lines)
