"""The full outer join: Algorithm 1's combination step.

The join is hash based and never matches NULL keys (SQL semantics);
the cube pipeline therefore rewrites cube NULLs to the DUMMY constant
before joining (Section 4.2), and :func:`full_outer_join_many` combines
the m per-aggregate cubes.  The universal table's FK joins live in
:mod:`repro.engine.universal`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..obs import phase
from .table import Table
from .types import NULL, Row, Value, join_key


def full_outer_join(
    left: Table,
    right: Table,
    on: Sequence[str],
    *,
    fill: Value = NULL,
) -> Table:
    """Full outer equi-join on the shared key columns *on*.

    Non-key columns from both sides are kept; rows unmatched on either
    side get *fill* (default NULL) in the other side's non-key columns.
    This is the combination step of Algorithm 1: cubes for different
    aggregate queries may contain different explanation rows, and an
    explanation absent from a cube must survive with a default value.

    Both tables must contain all columns in *on*.  Key columns are
    emitted once.
    """
    left.positions(on)
    right.positions(on)
    left_rest = [c for c in left.columns if c not in set(on)]
    right_rest = [c for c in right.columns if c not in set(on)]
    clash = set(left_rest) & set(right_rest)
    if clash:
        raise QueryError(f"full outer join value-column clash: {sorted(clash)}")
    out_columns = list(on) + left_rest + right_rest

    left_key_cols = [left.column(c) for c in on]
    right_key_cols = [right.column(c) for c in on]

    # Index the right side by position; NULL keys on either side are
    # treated as ordinary unmatched rows (they appear with fill on the
    # other side).
    right_index: Dict[Row, List[int]] = {}
    right_null_idx: List[int] = []
    for j, key in enumerate(zip(*right_key_cols)):
        if join_key(key) is None:
            right_null_idx.append(j)
        else:
            right_index.setdefault(key, []).append(j)
    if not on and len(right):
        # Zero key columns: every row shares the () key.
        right_index[()] = [j for j in range(len(right))]
        right_null_idx = []

    # Pair up row positions: (left position or None, right position or
    # None); the gather below fills the missing side.
    pairs: List[Tuple[Optional[int], Optional[int]]] = []
    matched_keys = set()
    left_keys = list(zip(*left_key_cols)) if on else [()] * len(left)
    for i, key in enumerate(left_keys):
        if join_key(key) is not None and key in right_index:
            matched_keys.add(key)
            for j in right_index[key]:
                pairs.append((i, j))
        else:
            pairs.append((i, None))
    for key, right_rows in right_index.items():
        if key in matched_keys:
            continue
        for j in right_rows:
            pairs.append((None, j))
    for j in right_null_idx:
        pairs.append((None, j))

    data: List[List[Value]] = []
    for lcol, rcol in zip(left_key_cols, right_key_cols):
        data.append(
            [lcol[i] if i is not None else rcol[j] for i, j in pairs]
        )
    for c in left_rest:
        col = left.column(c)
        data.append([col[i] if i is not None else fill for i, _ in pairs])
    for c in right_rest:
        col = right.column(c)
        data.append([col[j] if j is not None else fill for _, j in pairs])
    return Table.from_columns(out_columns, data, nrows=len(pairs))


def full_outer_join_many(
    tables: Sequence[Table],
    on: Sequence[str],
    *,
    fill: Value = NULL,
) -> Table:
    """Left-deep chain of full outer joins over *tables*."""
    if not tables:
        raise QueryError("full_outer_join_many needs at least one table")
    with phase("dummy_join", tables=len(tables)) as ph:
        result = tables[0]
        for table in tables[1:]:
            result = full_outer_join(result, table, on, fill=fill)
        ph.annotate(rows=len(result))
    return result
