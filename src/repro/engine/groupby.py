"""Hash group-by over :class:`~repro.engine.table.Table`.

``group_by(table, keys, aggregates)`` produces one output row per
distinct combination of key values, with one extra column per
aggregate.  The cube operator (:mod:`repro.engine.cube`) reuses the
same grouping machinery for its single-pass rollup.

The operator is columnar: group membership is computed by zipping the
key columns once (a ``Counter`` when every aggregate is COUNT(*)), and
accumulators consume gathered argument-column slices instead of full
row tuples.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from ..errors import QueryError
from .aggregates import Accumulator, AggregateSpec
from .table import Table
from .types import Row, Value


def _validate(
    keys: Sequence[str], aggregates: Sequence[AggregateSpec]
) -> List[str]:
    if not aggregates:
        raise QueryError("group_by requires at least one aggregate")
    aliases = [a.alias for a in aggregates]
    if len(set(aliases)) != len(aliases):
        raise QueryError(f"duplicate aggregate aliases: {aliases}")
    clash = set(aliases) & set(keys)
    if clash:
        raise QueryError(f"aggregate aliases clash with keys: {sorted(clash)}")
    return aliases


def group_rows(table: Table, keys: Sequence[str]) -> Dict[Row, List[int]]:
    """Row positions of *table* grouped by the values of *keys*.

    Insertion order of the returned dict is first-occurrence order of
    each key.  With no keys, every row lands in the single ``()``
    group (empty when the table is empty).
    """
    n = len(table)
    if not keys:
        return {(): list(range(n))} if n else {}
    key_cols = [table.column(k) for k in keys]
    groups: Dict[Row, List[int]] = {}
    if len(key_cols) == 1:
        col = key_cols[0]
        for i in range(n):
            key = (col[i],)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [i]
            else:
                bucket.append(i)
        return groups
    for i, key in enumerate(zip(*key_cols)):
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [i]
        else:
            bucket.append(i)
    return groups


def accumulate_groups(
    table: Table,
    groups: Dict[Row, List[int]],
    aggregates: Sequence[AggregateSpec],
) -> Dict[Row, List[Accumulator]]:
    """Per-group accumulator lists fed from gathered column slices."""
    arg_cols: List[Optional[List[Value]]] = [
        table.column(a.argument) if a.argument is not None else None
        for a in aggregates
    ]
    out: Dict[Row, List[Accumulator]] = {}
    for key, indices in groups.items():
        accs = [a.make_accumulator() for a in aggregates]
        for acc, col in zip(accs, arg_cols):
            if col is None:
                acc.add_repeat(None, len(indices))
            else:
                acc.add_many(col[i] for i in indices)
        out[key] = accs
    return out


def group_by(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """Group *table* by *keys* and compute *aggregates* per group.

    With an empty key list the result is a single row of grand totals
    (even over an empty input, matching SQL's scalar aggregates).
    Aggregate aliases must not clash with key columns.
    """
    aliases = _validate(keys, aggregates)
    out_columns = list(keys) + aliases
    n_aggs = len(aggregates)

    if keys and all(a.kind == "count_star" for a in aggregates):
        # COUNT(*)-only fast path: a Counter over zipped key columns
        # replaces per-group accumulator objects entirely.
        key_cols = [table.column(k) for k in keys]
        counts = Counter(zip(*key_cols))
        out_rows = [
            key + (count,) * n_aggs for key, count in counts.items()
        ]
        return Table._trusted(out_columns, rows=out_rows)

    groups = group_rows(table, keys)
    states = accumulate_groups(table, groups, aggregates)
    if not keys and not states:
        # Scalar aggregate over empty input: one row of defaults.
        states[()] = [a.make_accumulator() for a in aggregates]
    out_rows = [
        key + tuple(acc.result() for acc in accs)
        for key, accs in states.items()
    ]
    return Table._trusted(out_columns, rows=out_rows)


def scalar_aggregate(table: Table, aggregate: AggregateSpec) -> Value:
    """A single aggregate over the whole table (no grouping)."""
    result = group_by(table, (), (aggregate,))
    return result.rows()[0][0]
