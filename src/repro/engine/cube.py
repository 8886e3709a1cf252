"""``GROUP BY ... WITH CUBE`` — the data-cube operator (Section 4).

The cube over grouping attributes ``g1 … gd`` is the union of the
group-bys over all ``2^d`` subsets of the attributes, with the
attributes *outside* each subset set to NULL ("don't care").  Each cube
row therefore corresponds to one candidate explanation: the non-NULL
(attribute, value) pairs are the equality predicates of the conjunction
(Example 4.1).

:func:`cube` is columnar: group the zipped dimension columns at full
granularity once, then *roll the partial aggregate states up* into all
``2^d`` grouping sets via accumulator merges.  Work is
``O(rows + 2^d · distinct_keys)`` instead of the row-at-a-time
``O(rows · 2^d)``.  When every aggregate is COUNT(*), the whole pass
collapses to a ``Counter`` over the key columns.  The row-wise oracles
it is held equal to live in the test suite (``tests/support/cube.py``).

Section 4.2's optimization — rewriting NULL markers to the DUMMY
constant so the m cubes can be equi-joined — lives in
:func:`dummy_rewrite`.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Dict, List, Sequence, Tuple, Union

from ..errors import QueryError
from ..obs import phase
from .aggregates import Accumulator, AggregateSpec
from .groupby import accumulate_groups, group_rows
from .table import Table
from .types import DUMMY, NULL, Row, Value


def grouping_sets(dimensions: Sequence[str]) -> List[Tuple[str, ...]]:
    """All ``2^d`` subsets of *dimensions*, largest first.

    The full grouping set comes first and the empty (grand total) set
    last, mirroring the presentation order of SQL Server's WITH CUBE.
    """
    dims = tuple(dimensions)
    sets: List[Tuple[str, ...]] = []
    for size in range(len(dims), -1, -1):
        sets.extend(combinations(dims, size))
    return sets


# One group's rolled-up state: a plain int on the COUNT(*)-only fast
# path, a list of accumulators otherwise.
_GroupState = Union[int, List[Accumulator]]


def base_states(
    table: Table,
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Tuple[Dict[Row, _GroupState], bool]:
    """Full-granularity partial states: one entry per distinct key.

    The first half of the cube: groups the table once at full
    dimension granularity (a ``Counter`` over the zipped dimension
    columns when every aggregate is COUNT(*)) and rejects NULL
    dimension values.  Every state supports ``merge`` (integer
    addition / :meth:`Accumulator.merge`), which is what lets
    :func:`rollup_states` derive every coarser grouping set from these
    states without rescanning *table*.
    Returns the state map and whether the fast count path was taken.
    """
    dims = list(dimensions)
    d = len(dims)
    count_only = all(a.kind == "count_star" for a in aggregates)

    base: Dict[Row, _GroupState]
    with phase("cube.base_groups", rows=len(table), dims=d) as base_ph:
        if count_only:
            if d:
                key_cols = [table.column(dim) for dim in dims]
                base = dict(Counter(zip(*key_cols)))
            else:
                n = len(table)
                base = {(): n} if n else {}
            for key in base:
                _reject_null_dimensions(key, dims)
        else:
            groups = group_rows(table, dims)
            for key in groups:
                _reject_null_dimensions(key, dims)
            base = accumulate_groups(table, groups, aggregates)
        base_ph.annotate(groups=len(base), count_only=count_only)
    return base, count_only


def rollup_states(
    base: Dict[Row, _GroupState],
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    masks: Sequence[Tuple[bool, ...]],
    count_only: bool,
) -> Dict[Row, _GroupState]:
    """Merge full-granularity *base* states into one entry per *mask*.

    Each mask is a boolean keep-vector over ``dimensions``; dropped
    positions become NULL ("don't care").  The full mask reuses the
    base states without copying.
    """
    dims = list(dimensions)
    d = len(dims)
    out: Dict[Row, _GroupState] = {}
    for mask in masks:
        kept = ",".join(dim for dim, keep in zip(dims, mask) if keep)
        with phase("cube.grouping_set") as set_ph:
            before = len(out)
            if d == 0 or all(mask):
                # Full granularity: share the base states as-is.  Masked
                # keys always contain at least one NULL while base keys
                # never do, so nothing ever merges into these entries.
                out.update(base)
            elif count_only:
                for key, count in base.items():
                    masked = tuple(
                        v if keep else NULL for v, keep in zip(key, mask)
                    )
                    out[masked] = out.get(masked, 0) + count
            else:
                for key, parts in base.items():
                    masked = tuple(
                        v if keep else NULL for v, keep in zip(key, mask)
                    )
                    accs = out.get(masked)
                    if accs is None:
                        accs = [a.make_accumulator() for a in aggregates]
                        out[masked] = accs
                    for acc, part in zip(accs, parts):
                        acc.merge(part)
            set_ph.annotate(set=f"({kept})", groups=len(out) - before)
    return out


def cube_from_base_states(
    base: Dict[Row, _GroupState],
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    count_only: bool,
) -> Table:
    """Finish a cube from full-granularity base states.

    The second half of :func:`cube`: roll the states up into all
    ``2^d`` grouping sets, add the always-present grand-total row, and
    emit the result table.  The incremental delta builder feeds this
    with the states it maintains under writes; running the *identical*
    rollup/emit code is what keeps patched tables byte-identical in
    content to cold ones.
    """
    masks = [
        tuple(d in s for d in dimensions)
        for s in grouping_sets(dimensions)
    ]
    groups = rollup_states(base, dimensions, aggregates, masks, count_only)
    grand_total: Row = (NULL,) * len(dimensions)
    if grand_total not in groups:
        groups[grand_total] = _default_state(aggregates, count_only)
    return _emit(dimensions, aggregates, groups, count_only)


def _emit(
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    groups: Dict[Row, _GroupState],
    count_only: bool,
) -> Table:
    aliases = [a.alias for a in aggregates]
    n_aggs = len(aggregates)
    if count_only:
        out_rows = [
            key + (count,) * n_aggs for key, count in groups.items()
        ]
    else:
        out_rows = [
            key + tuple(acc.result() for acc in accs)
            for key, accs in groups.items()
        ]
    return Table._trusted(list(dimensions) + aliases, rows=out_rows)


def _default_state(
    aggregates: Sequence[AggregateSpec], count_only: bool
) -> _GroupState:
    if count_only:
        return 0
    return [a.make_accumulator() for a in aggregates]


def _validate_aggregates(
    table: Table, aggregates: Sequence[AggregateSpec]
) -> List[str]:
    aliases = [a.alias for a in aggregates]
    if len(set(aliases)) != len(aliases):
        raise QueryError(f"duplicate aggregate aliases: {aliases}")
    for a in aggregates:
        if a.argument is not None:
            table.position(a.argument)  # raise early on unknown columns
    return aliases


def validate_cube_args(
    table: Table,
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> None:
    """The shared argument checks of :func:`cube`.

    Raises :class:`~repro.errors.QueryError` for duplicate dimensions,
    unknown columns, duplicate aggregate aliases, or aliases clashing
    with dimensions.
    """
    if len(set(dimensions)) != len(dimensions):
        raise QueryError(f"duplicate cube dimensions: {dimensions}")
    table.positions(dimensions)
    aliases = _validate_aggregates(table, aggregates)
    if set(aliases) & set(dimensions):
        raise QueryError("aggregate aliases clash with cube dimensions")


def cube(
    table: Table,
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """Single-pass columnar data cube.

    Output columns are ``dimensions + aggregate aliases``; "don't care"
    dimensions carry NULL.  Groups are only emitted for value
    combinations present in the data (plus the grand-total row, which
    always exists, even on empty input).
    """
    validate_cube_args(table, dimensions, aggregates)

    with phase("cube", rows=len(table), dims=len(dimensions)) as ph:
        base, count_only = base_states(table, dimensions, aggregates)
        result = cube_from_base_states(
            base, dimensions, aggregates, count_only
        )
        ph.annotate(groups=len(result))
    return result


def _reject_null_dimensions(
    dim_values: Row, dimensions: Sequence[str]
) -> None:
    """NULL *data* in a grouping column would be indistinguishable from
    the cube's NULL "don't care" marker (SQL disambiguates with the
    GROUPING() function; we simply forbid it — the explanation pipeline
    never groups by nullable columns)."""
    for value, name in zip(dim_values, dimensions):
        if value is NULL:
            raise QueryError(
                f"cube dimension {name!r} contains NULL; NULL grouping "
                "values are ambiguous with the cube's don't-care marker"
            )


def dummy_rewrite(cube_table: Table, dimensions: Sequence[str]) -> Table:
    """Replace NULL with DUMMY in the dimension columns (Section 4.2).

    After the rewrite the cube can participate in plain equi-joins:
    ``NULL = NULL`` is false but ``DUMMY = DUMMY`` is true, so two
    cubes join exactly on identical explanations.  Untouched columns
    are shared with the input (zero copy).
    """
    return _swap_in_columns(cube_table, dimensions, NULL, DUMMY)


def _swap_in_columns(
    table: Table, columns: Sequence[str], old: Value, new: Value
) -> Table:
    pos = set(table.positions(columns))
    store = table.store()
    data: List[List[Value]] = []
    for i in range(len(table.columns)):
        col = store.column(i)
        if i in pos:
            col = [new if v is old else v for v in col]
        data.append(col)
    return Table.from_columns(table.columns, data, nrows=len(table))
