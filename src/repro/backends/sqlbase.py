"""Shared machinery for DBMS-backed Algorithm 1 (:class:`SQLBackend`).

This is the paper's Section 4 claim made literal: "the entire
computation can be pushed inside the database engine".  A
:class:`SQLBackend` runs one :meth:`build_explanation_table` call as a
single in-database script against a fresh connection:

1. load every relation of the engine :class:`~repro.engine.database.Database`
   into a DBMS table (engine ``NULL`` → SQL ``NULL``);
2. create the universal-relation view ``__U`` joining all relations
   along the foreign-key join tree, with qualified column names
   (``"Author.name"``) matching the engine's universal table;
3. evaluate every ``u_j = q_j(D)`` as a scalar SELECT over ``__U``;
4. materialize one cube table ``__C_<name>`` per aggregate query — the
   dialect decides how (``GROUPING SETS`` on DuckDB, a ``UNION ALL``
   expansion on SQLite) — and optionally perform the paper's
   NULL→dummy UPDATE rewrite;
5. build the driver table ``__K`` (the UNION of all cube keys) and
   LEFT JOIN every cube back onto it — equivalent to the paper's m-way
   full outer join but without nested COALESCE key chains;
6. marshal the result rows back into an engine
   :class:`~repro.engine.table.Table` (SQL ``NULL`` value → engine
   ``NULL``, don't-care key → ``DUMMY``) and delegate the μ columns and
   support filtering to
   :func:`repro.core.cube_algorithm.finalize_explanation_table`, so the
   degree arithmetic is bit-identical to the in-memory path.

Dialect differences are isolated in five template methods
(:meth:`SQLBackend._connect`, :meth:`~SQLBackend._column_type`,
:meth:`~SQLBackend._cube_sql`, :meth:`~SQLBackend._rewrite_dummies`,
:meth:`~SQLBackend._key_eq` / :meth:`~SQLBackend._key_to_engine`); a
new DBMS backend only needs those.  See ``docs/backends.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.additivity import AdditivityCertificate

from ..core.cube_algorithm import (
    MU_INTERV,
    ExplanationTable,
    finalize_explanation_table,
)
from ..core.numquery import AggregateQuery
from ..core.question import UserQuestion
from ..core.sqlgen import aggregate_sql, sql_expression, topk_select
from ..core.topk import RankedExplanation
from ..core.additivity import analyze_additivity
from ..engine.database import Database
from ..engine.schema import DatabaseSchema
from ..engine.table import Table
from ..engine.types import DUMMY, NULL, Value, is_null
from ..engine.universal import JoinTree
from ..errors import QueryError
from ..obs import phase
from .base import ExecutionBackend

#: The string constant standing in for the engine's DUMMY singleton
#: inside dynamically-typed DBMS columns (the paper's dummy value).
DUMMY_TEXT = "__DUMMY__"

#: In-database object names used by the script.  They are illegal as
#: paper schema content only by convention, so collisions are checked.
UNIVERSAL_VIEW = "__U"
KEYS_TABLE = "__K"
CUBE_PREFIX = "__C_"
TOPK_TABLE = "__M"


def qid(name: str) -> str:
    """Quote *name* as a SQL identifier (handles dots and quotes)."""
    return '"' + name.replace('"', '""') + '"'


def _attribute_aliases(
    attributes: Sequence[str], reserved: Sequence[str]
) -> List[str]:
    """Legal, unique column aliases for qualified attribute names.

    ``Author.name`` → ``Author_name``; collisions with *reserved* names
    (the ``v_<name>`` value columns) or with each other get a numeric
    suffix.
    """
    aliases: List[str] = []
    used = set(reserved)
    for attr in attributes:
        base = attr.replace(".", "_")
        alias, i = base, 2
        while alias in used:
            alias = f"{base}_{i}"
            i += 1
        used.add(alias)
        aliases.append(alias)
    return aliases


class SQLBackend(ExecutionBackend):
    """Template-method base for backends that execute in a real DBMS."""

    #: The :mod:`repro.core.sqlgen` dialect used for expression rendering.
    dialect: str = "sqlite"

    # -- dialect template methods --------------------------------------

    def _connect(self) -> Any:
        """Open a fresh in-memory DBMS connection."""
        raise NotImplementedError

    def _column_type(
        self, dtype: str, rows: Sequence[Tuple[Value, ...]], position: int
    ) -> str:
        """SQL column type for one attribute ('' = untyped/dynamic)."""
        return ""

    def _cube_sql(
        self,
        attributes: Sequence[str],
        aliases: Sequence[str],
        aggregate_sql: str,
        value_column: str,
        where_sql: Optional[str],
    ) -> str:
        """The SELECT computing one aggregate's cube over ``__U``.

        ``aggregate_sql``/``where_sql`` are pre-rendered fragments from
        :mod:`repro.core.sqlgen` — the ``*_sql`` names mark them as
        already quoted (RL006).
        """
        raise NotImplementedError

    def _rewrite_dummies(
        self, con: Any, table: str, aliases: Sequence[str]
    ) -> None:
        """Post-process a cube table (the NULL→dummy UPDATE, if any)."""

    def _key_eq(self, left_sql: str, right_sql: str) -> str:
        """The join condition between two (already-quoted) key columns."""
        return f"{left_sql} = {right_sql}"

    def _key_to_engine(self, value: Any) -> Value:
        """Map one SQL key value back to the engine domain."""
        if value is None or value == DUMMY_TEXT:
            return DUMMY
        return value

    #: Whether the don't-care marker is in-database NULL (DuckDB) or
    #: the string dummy constant (the paper's Section 4.2 encoding).
    dummy_is_null: bool = False

    def _key_to_sql(self, value: Value) -> Any:
        """Inverse of :meth:`_key_to_engine` for loading M rows."""
        if value is DUMMY:
            return None if self.dummy_is_null else DUMMY_TEXT
        if is_null(value):
            return None
        return value

    # -- shared plumbing ------------------------------------------------

    def _execute(self, con: Any, sql: str) -> None:
        con.execute(sql)

    def _fetchall(self, con: Any, sql: str) -> List[Tuple[Any, ...]]:
        return con.execute(sql).fetchall()

    def _value_to_engine(self, value: Any) -> Value:
        return NULL if value is None else value

    def _load_database(self, con: Any, database: Database) -> None:
        """CREATE + INSERT every relation (engine NULL → SQL NULL)."""
        for name in database.relation_names:
            rs = database.schema.relation(name)
            rows = database.relation(name).sorted_rows()
            defs = []
            for i, attribute in enumerate(rs.attributes):
                col_type = self._column_type(attribute.dtype, rows, i)
                defs.append(f"{qid(attribute.name)} {col_type}".rstrip())
            self._execute(
                con, f"CREATE TABLE {qid(name)} ({', '.join(defs)})"
            )
            if rows:
                marks = ", ".join("?" for _ in rs.attributes)
                con.executemany(
                    f"INSERT INTO {qid(name)} VALUES ({marks})",
                    [
                        tuple(None if is_null(v) else v for v in row)
                        for row in rows
                    ],
                )

    def _create_universal_view(self, con: Any, schema: DatabaseSchema) -> None:
        """``__U``: all relations joined along the FK tree, columns
        qualified exactly like the engine's universal table."""
        tree = JoinTree(schema)
        select_parts: List[str] = []
        from_lines: List[str] = []
        for name, fk in tree.traversal_order:
            for attr in schema.relation(name).attribute_names:
                select_parts.append(
                    f"{qid(name)}.{qid(attr)} AS {qid(f'{name}.{attr}')}"
                )
            if fk is None:
                from_lines.append(f"FROM {qid(name)}")
                continue
            other = fk.target if fk.source == name else fk.source
            if name == fk.source:
                pairs = [
                    (name, s, other, t)
                    for s, t in zip(fk.source_attrs, fk.target_attrs)
                ]
            else:
                pairs = [
                    (other, s, name, t)
                    for s, t in zip(fk.source_attrs, fk.target_attrs)
                ]
            conditions = " AND ".join(
                f"{qid(a)}.{qid(b)} = {qid(c)}.{qid(d)}" for a, b, c, d in pairs
            )
            from_lines.append(f"JOIN {qid(name)} ON {conditions}")
        # Cycle-closing keys (residual edges of a require_acyclic=False
        # schema): both sides are joined by the time the later one
        # appears, so the equality rides on that JOIN's ON clause.
        position = {
            name: i for i, (name, _) in enumerate(tree.traversal_order)
        }
        for fk in tree.residual_edges:
            later = max(position[fk.source], position[fk.target])
            extra = " AND ".join(
                f"{qid(fk.source)}.{qid(s)} = {qid(fk.target)}.{qid(t)}"
                for s, t in zip(fk.source_attrs, fk.target_attrs)
            )
            from_lines[later] += f" AND {extra}"
        self._execute(
            con,
            f"CREATE VIEW {qid(UNIVERSAL_VIEW)} AS\n"
            f"SELECT {', '.join(select_parts)}\n" + "\n".join(from_lines),
        )

    def _check_dimension_values(
        self, con: Any, attributes: Sequence[str]
    ) -> None:
        """Mirror the engine cube's NULL-dimension rejection."""
        for attr in attributes:
            hit = self._fetchall(
                con,
                f"SELECT 1 FROM {qid(UNIVERSAL_VIEW)} "
                f"WHERE {qid(attr)} IS NULL LIMIT 1",
            )
            if hit:
                raise QueryError(
                    f"cube dimension {attr!r} contains NULL; NULL grouping "
                    "values are ambiguous with the cube's don't-care marker"
                )

    def _scalar_aggregate(self, con: Any, q: AggregateQuery) -> Value:
        """One ``u_j = q_j(D)`` as a scalar SELECT over ``__U``."""
        select = aggregate_sql(q.aggregate, render_col=qid)
        sql = f"SELECT {select} FROM {qid(UNIVERSAL_VIEW)}"
        if q.where is not None:
            sql += f" WHERE {sql_expression(q.where, self.dialect, render_col=qid)}"
        return self._value_to_engine(self._fetchall(con, sql)[0][0])

    # -- Section 4.3: top-K pushed into the DBMS ------------------------

    def top_k(
        self,
        m: ExplanationTable,
        k: int,
        *,
        by: str = MU_INTERV,
        minimality: str = "general",
    ) -> List[RankedExplanation]:
        """Plain top-K of a finalized *M* as one window query.

        Loads the table's attribute and degree columns into the DBMS
        and ranks with the ``ROW_NUMBER() OVER`` rendering of
        :func:`repro.core.sqlgen.topk_select` — the paper's "push the
        computation inside the database engine" applied to Section
        4.3's No-Minimal strategy.  The result matches
        :func:`repro.core.topk.top_k_no_minimal` tie-for-tie (the
        window ORDER BY is a strict total order over M rows).  The
        minimal strategies stay in-memory: their domination filters
        are iterative subset probes, not a single ranking.
        """
        attributes = list(m.attributes)
        table = m.table
        mu_pos = table.position(by)
        attr_pos = table.positions(attributes)
        aliases = _attribute_aliases(attributes, [by])
        rows = table.rows()
        sql_rows = [
            tuple(self._key_to_sql(row[i]) for i in attr_pos)
            + (
                None
                if is_null(row[mu_pos]) or row[mu_pos] is DUMMY
                else row[mu_pos],
            )
            for row in rows
        ]
        by_key = {tuple(row[i] for i in attr_pos): row for row in rows}
        con = self._connect()
        try:
            with phase("backend_topk", backend=self.name, k=k, rows=len(rows)):
                defs = []
                for j, alias in enumerate(aliases):
                    col_type = self._column_type("any", sql_rows, j)
                    defs.append(f"{qid(alias)} {col_type}".rstrip())
                mu_type = self._column_type("any", sql_rows, len(aliases))
                defs.append(f"{qid(by)} {mu_type}".rstrip())
                self._execute(
                    con,
                    f"CREATE TABLE {qid(TOPK_TABLE)} ({', '.join(defs)})",
                )
                if sql_rows:
                    marks = ", ".join("?" for _ in defs)
                    con.executemany(
                        f"INSERT INTO {qid(TOPK_TABLE)} VALUES ({marks})",
                        sql_rows,
                    )
                sql = topk_select(
                    by,
                    aliases,
                    k=k,
                    minimality=minimality,
                    dialect=self.dialect,
                    table=qid(TOPK_TABLE),
                    render_col=qid,
                    dummy_is_null=self.dummy_is_null,
                ).rstrip(";")
                ranked_rows = self._fetchall(con, sql)
        finally:
            con.close()
        n = len(attributes)
        output: List[RankedExplanation] = []
        for ranked in ranked_rows:
            key = tuple(self._key_to_engine(v) for v in ranked[:n])
            row = by_key[key]
            output.append(
                RankedExplanation(
                    rank=int(ranked[n + 1]),
                    explanation=m.explanation_of(row),
                    degree=row[mu_pos],
                    row=row,
                )
            )
        return output

    # -- the algorithm --------------------------------------------------

    def build_explanation_table(
        self,
        database: Database,
        question: UserQuestion,
        attributes: Sequence[str],
        *,
        universal: Optional[Table] = None,
        check_additivity: bool = True,
        support_threshold: Optional[float] = None,
        certificate: Optional["AdditivityCertificate"] = None,
    ) -> ExplanationTable:
        attributes = list(attributes)
        schema = database.schema
        for attr in attributes:
            if "." not in attr:
                raise QueryError(
                    f"attribute {attr!r} must be a qualified universal "
                    "column (Relation.attr)"
                )
            schema.qualified(attr)  # raises SchemaError on unknown names
        query = question.query
        if check_additivity:
            # A data-resolved certificate replaces the probe, which
            # otherwise materializes the engine-side universal table
            # per request just to re-derive the same verdicts.
            if certificate is None or not certificate.data_resolved:
                certificate = analyze_additivity(
                    database, query, universal=universal
                )
            certificate.raise_if_not_additive()

        cube_names = {q.name: f"{CUBE_PREFIX}{q.name}" for q in query.aggregates}
        reserved = {UNIVERSAL_VIEW, KEYS_TABLE, *cube_names.values()}
        clash = reserved & set(schema.relation_names)
        if clash:
            raise QueryError(
                f"relation names {sorted(clash)} collide with the SQL "
                "backend's internal object names"
            )
        value_columns = [f"v_{q.name}" for q in query.aggregates]
        aliases = _attribute_aliases(attributes, value_columns)

        con = self._connect()
        try:
            with phase("backend_sql", backend=self.name) as sql_ph:
                with phase("backend_sql.load"):
                    self._load_database(con, database)
                    self._create_universal_view(con, schema)
                    self._check_dimension_values(con, attributes)

                # Step 1: the original aggregate values u_j.
                with phase("backend_sql.q_original"):
                    q_original: Dict[str, Value] = {
                        q.name: self._scalar_aggregate(con, q)
                        for q in query.aggregates
                    }

                # Step 2 (+2b): one cube table per aggregate,
                # dummy-rewritten where the dialect supports it.
                for q, value_column in zip(query.aggregates, value_columns):
                    with phase("backend_sql.cube", aggregate=q.name):
                        select = aggregate_sql(q.aggregate, render_col=qid)
                        where_sql = (
                            sql_expression(
                                q.where, self.dialect, render_col=qid
                            )
                            if q.where is not None
                            else None
                        )
                        body = self._cube_sql(
                            attributes,
                            aliases,
                            select,
                            value_column,
                            where_sql,
                        )
                        self._execute(
                            con,
                            f"CREATE TABLE {qid(cube_names[q.name])} "
                            f"AS\n{body}",
                        )
                        self._rewrite_dummies(
                            con, cube_names[q.name], aliases
                        )

                # Step 3: combine the cubes.  The UNION of all cube
                # keys is the set of candidate explanations; LEFT
                # JOINing each cube onto it is the m-way full outer
                # join without COALESCE chains (absent combinations
                # stay NULL and get the aggregate defaults in
                # finalize_explanation_table).
                with phase("backend_sql.join") as join_ph:
                    key_list = ", ".join(qid(a) for a in aliases)
                    keys_union = "\nUNION\n".join(
                        f"SELECT {key_list} FROM {qid(name)}"
                        for name in cube_names.values()
                    )
                    self._execute(
                        con,
                        f"CREATE TABLE {qid(KEYS_TABLE)} AS\n{keys_union}",
                    )
                    select_parts = [
                        f"{qid(KEYS_TABLE)}.{qid(a)}" for a in aliases
                    ]
                    select_parts += [
                        f"{qid(cube_names[q.name])}.{qid(vc)}"
                        for q, vc in zip(query.aggregates, value_columns)
                    ]
                    join_lines = []
                    for name in cube_names.values():
                        conditions = " AND ".join(
                            self._key_eq(
                                f"{qid(KEYS_TABLE)}.{qid(a)}",
                                f"{qid(name)}.{qid(a)}",
                            )
                            for a in aliases
                        )
                        join_lines.append(
                            f"LEFT JOIN {qid(name)} ON {conditions}"
                        )
                    rows = self._fetchall(
                        con,
                        f"SELECT {', '.join(select_parts)}\n"
                        f"FROM {qid(KEYS_TABLE)}\n" + "\n".join(join_lines),
                    )
                    join_ph.annotate(rows=len(rows))
                sql_ph.annotate(rows=len(rows))
        finally:
            con.close()

        # Step 3b/4 run in Python on the marshalled rows so the μ
        # arithmetic matches the in-memory reference exactly.  The
        # DBMS hands back a new object per cell; equal attribute
        # values are mapped to one object, as the in-memory cube's keys
        # share U's, so *M* holds each distinct value once.  The type is
        # part of the key: 1 and 1.0 are equal but render apart.
        n = len(attributes)
        shared: Dict[Tuple[type, Value], Value] = {}

        def key(value: Any) -> Value:
            value = self._key_to_engine(value)
            return shared.setdefault((value.__class__, value), value)

        marshalled = [
            tuple(map(key, row[:n]))
            + tuple(self._value_to_engine(v) for v in row[n:])
            for row in rows
        ]
        joined = Table(list(attributes) + value_columns, marshalled)
        with phase("finalize", rows=len(joined)):
            return finalize_explanation_table(
                joined,
                question,
                attributes,
                q_original,
                support_threshold=support_threshold,
            )
