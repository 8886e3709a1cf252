"""Lightweight result tables for intermediate query processing.

:class:`~repro.engine.relation.Relation` is the durable, schema'd,
PK-enforcing store.  Query *results* — joins, projections, group-bys,
cubes — have none of those constraints: they are bags/sets of rows
under a flat list of (possibly qualified) column names.  :class:`Table`
is that result type.  All relational operators in
:mod:`repro.engine.joins`, :mod:`repro.engine.groupby` and
:mod:`repro.engine.cube` consume and produce Tables.

Storage is dual and lazy: a table holds a row-tuple list, a
:class:`~repro.engine.columnstore.ColumnStore`, or both, deriving and
caching each representation from the other on first demand.  The
vectorized operators read columns; :meth:`Table.rows` remains the
row-oriented escape hatch (and test oracle).  Filters, projections and
semijoins are zero-copy: they share base column lists through
selection vectors instead of rebuilding tuples.

The public ``Table(columns, rows)`` constructor validates every row's
arity, since it is the boundary where external data (CSV loads, SQL
results, test literals) enters the engine.  Internal operators use the
trusted :meth:`Table._trusted` / :meth:`Table.from_columns` paths,
which skip per-row validation because their inputs are already-shaped
engine values.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import QueryError
from .columnstore import Column, ColumnStore
from .expressions import Environment, Expression, select_positions
from .relation import JoinIndexes, Relation
from .types import Row, Value, is_null, join_key, sort_key


class Table:
    """An ordered list of rows under named columns.

    Tables are bags by default (duplicates preserved); :meth:`distinct`
    converts to a set.  Column names must be unique within a table;
    joins qualify clashing names with the source prefix.
    """

    __slots__ = ("columns", "_positions", "_rows", "_store", "_index_cache")

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[Value]] = ()):
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise QueryError(f"duplicate column names in table: {self.columns}")
        self._positions: Dict[str, int] = {
            c: i for i, c in enumerate(self.columns)
        }
        ncols = len(self.columns)
        checked: List[Row] = []
        for r in rows:
            row = r if type(r) is tuple else tuple(r)
            if len(row) != ncols:
                raise QueryError(
                    f"row arity {len(row)} != column count {ncols}"
                )
            checked.append(row)
        self._rows: Optional[List[Row]] = checked
        self._store: Optional[ColumnStore] = None
        # Set only on from_relation views (the snapshot's join indexes)
        # and by keep_indexes().
        self._index_cache: Optional[JoinIndexes] = None  # reprolint: disable=RL004 (keyed by the immutable snapshot or table: a mutation builds a new snapshot, and a new U, each with a new dict)

    # -- construction ----------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        columns: Sequence[str],
        *,
        rows: Optional[List[Row]] = None,
        store: Optional[ColumnStore] = None,
    ) -> "Table":
        """Internal constructor for already-validated engine data.

        Adopts *rows* (a list of correctly-sized tuples) and/or
        *store* without re-tupling or arity checks.  At least one
        representation must be supplied.
        """
        table = cls.__new__(cls)
        table.columns = tuple(columns)
        table._positions = {c: i for i, c in enumerate(table.columns)}
        table._rows = rows
        table._store = store
        table._index_cache = None
        return table

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[str],
        data: Sequence[Column],
        nrows: Optional[int] = None,
    ) -> "Table":
        """Build a table directly from columns (adopted, no copy): lists
        or typed columns (:func:`~repro.engine.columnstore.typed_column`).

        All columns must share one length; *nrows* is required when
        *data* is empty (a zero-column table still has a cardinality).
        """
        columns = tuple(columns)
        if len(set(columns)) != len(columns):
            raise QueryError(f"duplicate column names in table: {columns}")
        if len(data) != len(columns):
            raise QueryError(
                f"{len(data)} column lists for {len(columns)} column names"
            )
        if data:
            lengths = {len(col) for col in data}
            if len(lengths) != 1:
                raise QueryError(
                    f"ragged column lists: lengths {sorted(lengths)}"
                )
            n = lengths.pop()
            if nrows is not None and nrows != n:
                raise QueryError(
                    f"nrows {nrows} != column length {n}"
                )
        else:
            if nrows is None:
                raise QueryError("nrows is required for a zero-column table")
            n = nrows
        return cls._trusted(
            columns, store=ColumnStore.from_columns(list(data), n)
        )

    @classmethod
    def from_relation(cls, relation: Relation, qualify: bool = False) -> "Table":
        """Materialize a relation as a table.

        With ``qualify=True`` column names become ``Relation.attr``,
        which is the convention used throughout the explanation
        pipeline (universal-relation columns are always qualified).
        The table shares the relation's version-cached row list, column
        arrays and join indexes (zero copy); a later mutation of the
        relation builds a new snapshot, so the table keeps its own.
        """
        if qualify:
            cols = [
                f"{relation.name}.{a}" for a in relation.schema.attribute_names
            ]
        else:
            cols = list(relation.schema.attribute_names)
        rows, column_arrays, indexes = relation._columnar_snapshot()
        table = cls._trusted(
            cols,
            rows=rows,
            store=ColumnStore.from_columns(column_arrays, len(rows)),
        )
        table._index_cache = indexes
        return table

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Table":
        """An empty table with the given columns."""
        return cls(columns, ())

    # -- representations ---------------------------------------------------

    def store(self) -> ColumnStore:
        """The columnar representation (built and cached on demand)."""
        if self._store is None:
            assert self._rows is not None
            self._store = ColumnStore.from_rows(self._rows, len(self.columns))
        return self._store

    def column(self, column: str) -> Column:
        """One column's values in row order (treat as read-only)."""
        return self.store().column(self.position(column))

    def column_arrays(self) -> List[Column]:
        """All columns' values in schema order (treat as read-only)."""
        return self.store().columns()

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._store)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.columns == other.columns and sorted(
            self.rows(), key=_row_key
        ) == sorted(other.rows(), key=_row_key)

    def position(self, column: str) -> int:
        """Index of *column* in the row tuples."""
        try:
            return self._positions[column]
        except KeyError:
            raise QueryError(
                f"table has no column {column!r}; columns are {self.columns}"
            ) from None

    def positions(self, columns: Sequence[str]) -> Tuple[int, ...]:
        """Indexes of several columns, in the given order."""
        return tuple(self.position(c) for c in columns)

    def has_column(self, column: str) -> bool:
        """True iff *column* exists in this table."""
        return column in self._positions

    def rows(self) -> List[Row]:
        """The row-tuple list (built and cached on demand; do not mutate)."""
        if self._rows is None:
            self._rows = self._store.rows()
        return self._rows

    def sorted_rows(self) -> List[Row]:
        """Rows in a deterministic total order."""
        return sorted(self.rows(), key=_row_key)

    def environment(self, row: Sequence[Value]) -> Dict[str, Value]:
        """An expression-evaluation environment for one row."""
        return dict(zip(self.columns, row))

    def iter_environments(self) -> Iterator[Dict[str, Value]]:
        """Environments for every row, in order."""
        for row in self.rows():
            yield dict(zip(self.columns, row))

    # -- core transformations ----------------------------------------------

    def take(self, indices: Iterable[int]) -> "Table":
        """Rows at the given positions, in order (zero-copy selection)."""
        return Table._trusted(self.columns, store=self.store().select(indices))

    def filter(self, predicate: Expression) -> "Table":
        """Rows where *predicate* evaluates truthy.

        Evaluated column-at-a-time (:func:`select_positions`): each
        comparison is one pass over its column, and a conjunction
        narrows the candidate rows one conjunct at a time.  On a table
        that keeps its indexes (a relation view, or :meth:`keep_indexes`)
        a leading ``Col = Const`` starts from that value's posting
        (:meth:`index_positions` on the one column) instead of reading
        every cell.  The surviving rows are returned as a zero-copy
        selection over this table's columns.
        """
        return self.take(self.filter_positions(predicate))

    def filter_positions(self, predicate: Expression) -> List[int]:
        """The positions, ascending, of the rows :meth:`filter` keeps."""
        for col in predicate.columns():
            self.position(col)  # raise early on unknown columns
        postings = None
        if self._index_cache is not None:
            def postings(name: str, constant: Value) -> Sequence[int]:
                return self.index_positions((name,)).get((constant,), ())
        return select_positions(predicate, self.column, len(self), postings)

    def filter_rows(self, fn: Callable[[Environment], bool]) -> "Table":
        """Rows where the Python callable *fn* (on the env dict) is true."""
        columns = self.columns
        out = [
            row for row in self.rows() if fn(dict(zip(columns, row)))
        ]
        return Table._trusted(self.columns, rows=out)

    def project(self, columns: Sequence[str], distinct: bool = False) -> "Table":
        """Keep only *columns* (bag projection unless ``distinct``).

        A bag projection is zero-copy (shared column lists); distinct
        projections materialize the surviving key tuples.
        """
        pos = self.positions(columns)
        if not distinct:
            return Table._trusted(columns, store=self.store().project(pos))
        if pos:
            cols = [self.store().column(i) for i in pos]
            rows = _stable_unique(zip(*cols))
        else:
            rows = _stable_unique(() for _ in range(len(self)))
        return Table._trusted(columns, rows=list(rows))

    def rename(self, mapping: Dict[str, str]) -> "Table":
        """Rename columns according to *mapping* (missing keys kept)."""
        new_cols = [mapping.get(c, c) for c in self.columns]
        if len(set(new_cols)) != len(new_cols):
            raise QueryError(f"duplicate column names in table: {new_cols}")
        return Table._trusted(new_cols, rows=self._rows, store=self._store)

    def extend(self, column: str, expr: Expression) -> "Table":
        """Append a computed column (evaluated over referenced columns)."""
        if column in self._positions:
            raise QueryError(f"column {column!r} already exists")
        needed = tuple(expr.columns())
        for col in needed:
            self.position(col)
        n = len(self)
        if not needed:
            value = expr.evaluate({})
            new_col: List[Value] = [value] * n
        else:
            cols = [self.column(c) for c in needed]
            new_col = [
                expr.evaluate(dict(zip(needed, vals)))
                for vals in zip(*cols)
            ]
        return Table._trusted(
            list(self.columns) + [column],
            store=self.store().with_column(new_col),
        )

    def distinct(self) -> "Table":
        """Duplicate elimination (stable: first occurrence order kept)."""
        return Table._trusted(
            self.columns, rows=list(_stable_unique(self.rows()))
        )

    def union(self, other: "Table") -> "Table":
        """Bag union; columns must match exactly."""
        self._check_compatible(other)
        return Table._trusted(self.columns, rows=self.rows() + other.rows())

    def difference(self, other: "Table") -> "Table":
        """Set difference (rows of self not present in other)."""
        self._check_compatible(other)
        drop = set(other.rows())
        return Table._trusted(
            self.columns, rows=[r for r in self.rows() if r not in drop]
        )

    def intersect(self, other: "Table") -> "Table":
        """Set intersection."""
        self._check_compatible(other)
        keep = set(other.rows())
        return Table._trusted(
            self.columns,
            rows=list(_stable_unique(r for r in self.rows() if r in keep)),
        )

    def order_by(
        self,
        columns: Sequence[str],
        descending: bool = False,
    ) -> "Table":
        """Sort rows by *columns* using the engine's total order."""
        pos = self.positions(columns)

        def key(row: Row) -> Tuple:
            return tuple(sort_key(row[i]) for i in pos)

        return Table._trusted(
            self.columns,
            rows=sorted(self.rows(), key=key, reverse=descending),
        )

    def limit(self, n: int) -> "Table":
        """First *n* rows."""
        return Table._trusted(self.columns, rows=self.rows()[:n])

    def row_set(self) -> Set[Row]:
        """Rows as a set (for containment checks)."""
        return set(self.rows())

    def keep_indexes(self) -> "Table":
        """Keep the indexes :meth:`index_positions` builds from now on.

        For a table that outlives one query, such as the ``U(D)`` a
        database memoizes per version: its joins and its equality
        selections (:meth:`filter`) then build each index once.
        Returns this table.
        """
        if self._index_cache is None:
            self._index_cache = {}
        return self

    def index_positions(self, columns: Sequence[str]) -> Dict[Row, List[int]]:
        """Hash index mapping key tuples to *row positions* (read-only).

        Built once from column slices; callers gather matching rows by
        position afterwards.  Rows with NULL keys are excluded: they
        never equi-join (:func:`~repro.engine.types.join_key`).  On a
        :meth:`from_relation` view the index is the relation snapshot's,
        shared by every view of that version; after :meth:`keep_indexes`
        it is kept on the table.
        """
        pos = self.positions(columns)
        cache = self._index_cache
        if cache is not None and pos in cache:
            return cache[pos]
        if not pos:
            n = len(self)
            return {(): list(range(n))} if n else {}
        index: Dict[Row, List[int]] = {}
        cols = [self.store().column(i) for i in pos]
        for i, key in enumerate(zip(*cols)):
            hits = index.get(key)
            if hits is not None:
                hits.append(i)
            elif join_key(key) is not None:  # once per non-NULL key, not per row
                index[key] = [i]
        if cache is not None:
            cache[pos] = index
        return index

    def column_values(self, column: str, distinct: bool = True) -> List[Value]:
        """Values of one column (distinct & non-null by default)."""
        values = self.column(column)
        if distinct:
            return list(
                _stable_unique(v for v in values if not is_null(v))
            )
        return list(values)

    # -- helpers -------------------------------------------------------------

    def _check_compatible(self, other: "Table") -> None:
        if self.columns != other.columns:
            raise QueryError(
                f"incompatible tables: {self.columns} vs {other.columns}"
            )

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width rendering for debugging and examples."""
        headers = list(self.columns)
        body = [[repr(v) for v in row] for row in self.rows()[:limit]]
        widths = [
            max(len(h), *(len(r[i]) for r in body)) if body else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in body
        )
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Table({list(self.columns)}, {len(self)} rows)"


def _row_key(row: Row):
    return tuple(sort_key(v) for v in row)


def _stable_unique(rows: Iterable) -> Iterator:
    seen = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row
