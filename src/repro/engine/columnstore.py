"""Column-major storage backing :class:`~repro.engine.table.Table`.

A :class:`ColumnStore` keeps one sequence per column plus an
optional *selection vector* — a list of row indices into the base
columns. Operators that only drop rows (filter, take, limit) or drop
columns (project) return a new store that *shares* the base column
lists and composes selections, so the hot path of Algorithm 1 — filter
the universal table, group, cube — never copies or re-tuples data it
does not touch.

Deliberately stdlib-only: the optional numpy fast path lives in
:mod:`repro.engine.fastpath` and reads columns straight out of this
store; nothing here imports numpy.

A column is a plain Python list, or a *typed column*
(:func:`typed_column`): an ``array('q')`` of ints or an ``array('d')``
of floats.  Both index, iterate and measure (``len``) like a list, and
a reader that sees the type knows every cell is a plain number without
scanning; gathering a typed column through a selection yields a list.

Stores are value-immutable by convention: every constructor *adopts*
the lists it is given without copying, and callers must not mutate a
list after handing it over.  All mutation-flavoured methods
(:meth:`select`, :meth:`project`, :meth:`with_column`) return new
stores.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence, Union

from .types import Row, Value

__all__ = ["Column", "ColumnStore", "typed_column"]

#: One column's cells: a list, or a typed ``array('q')`` / ``array('d')``.
Column = Union[List[Value], array]


def typed_column(values: List[Value], typecode: str = "") -> Column:
    """*values* as a typed column when they allow one, else *values*.

    ``array('q')`` when every value is an ``int`` (not a ``bool``) that
    fits in int64; ``array('d')`` when every value is a ``float`` (NaN
    and ±inf included).  Anything else (NULL, bool, a mix of ints and
    floats, larger ints, strings) stays the list it is.  A caller that
    knows every value is a float passes ``typecode="d"``, and one that
    knows every value is an int ``"q"``, so no cell is scanned; an
    already typed column is returned as it is.
    """
    if isinstance(values, array):
        return values
    if not typecode:
        kinds = set(map(type, values))
        if kinds == {float}:
            typecode = "d"
        elif kinds == {int}:
            typecode = "q"
        else:
            return values
    try:
        return array(typecode, values)
    except OverflowError:  # an int outside int64
        return values


class ColumnStore:
    """Positional columnar storage with zero-copy row/column selection.

    Parameters
    ----------
    columns:
        One list or typed column (:func:`typed_column`) per column.
        Adopted, not copied.
    nrows:
        Number of *base* rows.  Required explicitly so zero-column
        stores (legal: ``SELECT`` with no output columns still has a
        cardinality) know their length.
    selection:
        Optional list of base-row indices defining which rows are
        visible, in order.  ``None`` means "all base rows".
    """

    __slots__ = ("_columns", "_nrows", "_selection", "_materialized")

    def __init__(
        self,
        columns: Sequence[Column],
        nrows: int,
        selection: Optional[List[int]] = None,
    ) -> None:
        self._columns = list(columns)
        self._nrows = nrows
        self._selection = selection
        # Per-column cache of gathered (selection-applied) lists so a
        # column is materialized at most once per store.
        self._materialized: dict = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Row], ncols: int) -> "ColumnStore":
        """Transpose an already-validated list of row tuples."""
        if rows:
            columns = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in range(ncols)]
        return cls(columns, len(rows))

    @classmethod
    def from_columns(
        cls, columns: Sequence[Column], nrows: int
    ) -> "ColumnStore":
        """Adopt pre-built column lists (no copy, no validation)."""
        return cls(columns, nrows)

    # -- shape --------------------------------------------------------------

    def __len__(self) -> int:
        if self._selection is not None:
            return len(self._selection)
        return self._nrows

    @property
    def ncols(self) -> int:
        return len(self._columns)

    # -- column access ------------------------------------------------------

    def column(self, index: int) -> Column:
        """The values of one column, selection applied.

        Without a selection this is the base column itself (zero copy);
        with one, the gathered list is built once and cached.  Callers
        must treat the result as read-only.
        """
        if self._selection is None:
            return self._columns[index]
        cached = self._materialized.get(index)
        if cached is None:
            base = self._columns[index]
            sel = self._selection
            cached = [base[i] for i in sel]
            self._materialized[index] = cached
        return cached

    def columns(self) -> List[Column]:
        """All columns, selection applied (see :meth:`column`)."""
        return [self.column(i) for i in range(len(self._columns))]

    def rows(self) -> List[Row]:
        """Materialize row tuples (the row-oriented escape hatch)."""
        cols = self.columns()
        if not cols:
            return [()] * len(self)
        return list(zip(*cols))

    # -- zero-copy derivations ---------------------------------------------

    def select(self, indices: Iterable[int]) -> "ColumnStore":
        """A store visiting only *indices* (positions in *this* store).

        Shares the base column lists; selections compose, so chains of
        filters never copy column data.
        """
        if self._selection is None:
            selection = list(indices)
        else:
            base_sel = self._selection
            selection = [base_sel[i] for i in indices]
        return ColumnStore(self._columns, self._nrows, selection)

    def project(self, indices: Sequence[int]) -> "ColumnStore":
        """A store with only the given columns (shared, in order)."""
        store = ColumnStore(
            [self._columns[i] for i in indices], self._nrows, self._selection
        )
        if self._selection is not None:
            # Share any already-gathered columns with the projection.
            for new_index, old_index in enumerate(indices):
                if old_index in self._materialized:
                    store._materialized[new_index] = self._materialized[
                        old_index
                    ]
        return store

    def with_column(self, values: List[Value]) -> "ColumnStore":
        """A store with *values* appended as a new last column.

        *values* must already be selection-applied (one entry per
        visible row); the result is re-based so existing selections do
        not apply to the new column.
        """
        columns = self.columns() + [values]
        return ColumnStore(columns, len(self))

    # -- debugging ----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sel = "all" if self._selection is None else f"{len(self._selection)}"
        return (
            f"ColumnStore(ncols={self.ncols}, nrows={self._nrows}, "
            f"selected={sel})"
        )
