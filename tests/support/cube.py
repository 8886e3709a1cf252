"""Row-at-a-time group-by and cube oracles.

The production kernels (:func:`repro.engine.groupby.group_by`,
:func:`repro.engine.cube.cube`) are columnar; these walk row tuples and
share no grouping code with them, which is what makes them oracles.
:func:`cube_bruteforce` runs one row-wise group-by per grouping set;
:func:`cube_rowwise` is the older single-pass row algorithm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.engine.aggregates import Accumulator, AggregateSpec
from repro.engine.cube import grouping_sets
from repro.engine.table import Table
from repro.engine.types import NULL, Row
from repro.errors import QueryError


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


def _reject_null_dimensions(dim_values: Row, dimensions: Sequence[str]) -> None:
    for value, name in zip(dim_values, dimensions):
        if value is NULL:
            raise QueryError(
                f"cube dimension {name!r} contains NULL; NULL grouping "
                "values are ambiguous with the cube's don't-care marker"
            )


def group_by_rowwise(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """The row-at-a-time group-by, semantically identical to ``group_by``."""
    aliases = _validate(keys, aggregates)

    key_pos = table.positions(keys)
    arg_pos: List[Optional[int]] = [
        table.position(a.argument) if a.argument is not None else None
        for a in aggregates
    ]

    groups: Dict[Row, List[Accumulator]] = {}
    for row in table.rows():
        key = tuple(row[i] for i in key_pos)
        accs = groups.get(key)
        if accs is None:
            accs = [a.make_accumulator() for a in aggregates]
            groups[key] = accs
        for acc, pos in zip(accs, arg_pos):
            acc.add(row[pos] if pos is not None else None)

    if not keys and not groups:
        groups[()] = [a.make_accumulator() for a in aggregates]

    out_columns = list(keys) + aliases
    out_rows = [
        key + tuple(acc.result() for acc in accs)
        for key, accs in groups.items()
    ]
    return Table(out_columns, out_rows)


def cube_rowwise(
    table: Table,
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """Single-pass row-at-a-time cube, semantically identical to ``cube``.

    One pass over the row tuples, feeding every grouping-set key per row.
    """
    if len(set(dimensions)) != len(dimensions):
        raise QueryError(f"duplicate cube dimensions: {dimensions}")
    dim_pos = table.positions(dimensions)
    arg_pos: List[Optional[int]] = [
        table.position(a.argument) if a.argument is not None else None
        for a in aggregates
    ]
    aliases = [a.alias for a in aggregates]
    if len(set(aliases)) != len(aliases):
        raise QueryError(f"duplicate aggregate aliases: {aliases}")
    if set(aliases) & set(dimensions):
        raise QueryError("aggregate aliases clash with cube dimensions")

    sets = grouping_sets(dimensions)
    masks = [
        tuple(d in s for d in dimensions)
        for s in sets
    ]
    groups: Dict[Row, List[Accumulator]] = {}
    for row in table.rows():
        dim_values = tuple(row[i] for i in dim_pos)
        _reject_null_dimensions(dim_values, dimensions)
        arg_values = tuple(
            row[i] if i is not None else None for i in arg_pos
        )
        for mask in masks:
            key = tuple(
                v if keep else NULL for v, keep in zip(dim_values, mask)
            )
            accs = groups.get(key)
            if accs is None:
                accs = [a.make_accumulator() for a in aggregates]
                groups[key] = accs
            for acc, v in zip(accs, arg_values):
                acc.add(v)

    grand_total: Row = (NULL,) * len(dimensions)
    if grand_total not in groups:
        groups[grand_total] = [a.make_accumulator() for a in aggregates]

    out_rows = [
        key + tuple(acc.result() for acc in accs)
        for key, accs in groups.items()
    ]
    return Table(list(dimensions) + aliases, out_rows)


def cube_bruteforce(
    table: Table,
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """Reference cube: one row-wise group-by per grouping set.

    Built on the row-oriented :func:`group_by_rowwise`, so it shares no
    grouping code with the columnar production path.
    """
    if len(table) and dimensions:
        pos = table.positions(dimensions)
        for row in table.rows():
            _reject_null_dimensions(
                tuple(row[i] for i in pos), dimensions
            )
    aliases = [a.alias for a in aggregates]
    out_columns = list(dimensions) + aliases
    out_rows: List[Row] = []
    seen_keys = set()
    for gset in grouping_sets(dimensions):
        grouped = group_by_rowwise(table, gset, aggregates)
        positions = {c: grouped.position(c) for c in grouped.columns}
        for row in grouped.rows():
            key = tuple(
                row[positions[d]] if d in gset else NULL for d in dimensions
            )
            if not gset and key in seen_keys:
                continue
            seen_keys.add(key)
            out_rows.append(
                key + tuple(row[positions[a]] for a in aliases)
            )
    return Table(out_columns, out_rows)
