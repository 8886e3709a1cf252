"""Value domain and NULL semantics for the in-memory relational engine.

The engine stores plain Python values (``int``, ``float``, ``str``,
``bool``) plus a dedicated :data:`NULL` marker with SQL-like semantics.
Two different null flavours appear in the system:

* :data:`NULL` — the ordinary SQL null: unknown value.  Comparisons
  involving it are never true, and it never equi-joins with anything,
  including itself.  Cube rows use it to mark "don't care" attributes.
* :data:`DUMMY` — the dummy constant from Section 4.2 of the paper.
  Before the full outer join of the per-aggregate cubes, every
  :data:`NULL` in a grouping column is rewritten to :data:`DUMMY` so a
  plain equi-join can be used.  :data:`DUMMY` compares equal to itself
  and sorts *above* every regular value (the Minimal-append strategy in
  Section 4.3 relies on the dummy being larger than all valid values).

Both markers are singletons, so identity checks (``value is NULL``) are
safe, but :func:`is_null` / :func:`is_dummy` read better in call sites.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Any, Optional, Tuple, Union


class _Null:
    """Singleton SQL NULL.  Never equal to anything, including itself
    under SQL semantics; Python-level ``==`` is identity so the marker
    can live inside dict keys and sets (needed for hash joins that must
    *not* match nulls — those sites key through :func:`join_key`).
    """

    _instance = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __deepcopy__(self, memo: dict) -> "_Null":
        return self

    def __copy__(self) -> "_Null":
        return self


@total_ordering
class _Dummy:
    """Singleton dummy constant (Section 4.2/4.3).

    Equal only to itself; strictly greater than every other value so
    that ``ORDER BY`` places dummy-padded explanations after real ones,
    which is what gives Minimal-append its preference for shorter
    explanations.
    """

    _instance = None

    def __new__(cls) -> "_Dummy":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DUMMY"

    def __eq__(self, other: Any) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("__repro_dummy__")

    def __lt__(self, other: Any) -> bool:
        # DUMMY is the maximum of the value domain: never less than
        # anything except... nothing.
        return False

    def __deepcopy__(self, memo: dict) -> "_Dummy":
        return self

    def __copy__(self) -> "_Dummy":
        return self


NULL = _Null()
DUMMY = _Dummy()

#: The Python types a regular (non-null) engine value may have.
Value = Union[int, float, str, bool, _Null, _Dummy]

#: A row is an immutable tuple of values.
Row = Tuple[Value, ...]


def is_null(value: Any) -> bool:
    """Return True iff *value* is the engine NULL marker."""
    return value is NULL


def join_key(key: Row) -> Optional[Row]:
    """*key* as an equi-join key, or None when a component is NULL: as
    in SQL, a NULL key joins nothing, not even another NULL."""
    return None if NULL in key else key


def is_dummy(value: Any) -> bool:
    """Return True iff *value* is the engine DUMMY marker."""
    return value is DUMMY


def is_missing(value: Any) -> bool:
    """Return True iff *value* is NULL or DUMMY (no real data)."""
    return value is NULL or value is DUMMY


def sql_eq(a: Value, b: Value) -> bool:
    """SQL equality: NULL = anything is false (even NULL = NULL)."""
    if a is NULL or b is NULL:
        return False
    return a == b


_TYPE_ORDER = {bool: 0, int: 1, float: 1, str: 2}


def _rank(value: Value) -> int:
    if value is DUMMY:
        return 3
    return _TYPE_ORDER.get(type(value), 2)


def sort_key(value: Value) -> Tuple[int, Any]:
    """A total-order key over the heterogeneous value domain.

    NULL sorts first, then booleans, then numbers, then strings, then
    DUMMY last.  Used by ORDER BY and by deterministic tie-breaking in
    top-K queries.
    """
    if value is NULL:
        return (-1, 0)
    rank = _rank(value)
    if value is DUMMY:
        return (rank, 0)
    if isinstance(value, bool):
        return (rank, int(value))
    return (rank, value)


def sql_lt(a: Value, b: Value) -> bool:
    """SQL '<': false whenever either side is NULL; DUMMY is maximal."""
    if a is NULL or b is NULL:
        return False
    if a is DUMMY:
        return False
    if b is DUMMY:
        return True
    try:
        return a < b
    except TypeError:
        return sort_key(a) < sort_key(b)


def sql_le(a: Value, b: Value) -> bool:
    """SQL '<=': false whenever either side is NULL."""
    if a is NULL or b is NULL:
        return False
    return sql_eq(a, b) or sql_lt(a, b)


def sql_gt(a: Value, b: Value) -> bool:
    """SQL '>': false whenever either side is NULL."""
    if a is NULL or b is NULL:
        return False
    return sql_lt(b, a)


def sql_ge(a: Value, b: Value) -> bool:
    """SQL '>=': false whenever either side is NULL."""
    if a is NULL or b is NULL:
        return False
    return sql_eq(a, b) or sql_lt(b, a)


def sql_ne(a: Value, b: Value) -> bool:
    """SQL '<>': false whenever either side is NULL."""
    if a is NULL or b is NULL:
        return False
    return not sql_eq(a, b)
