"""``GROUP BY ... WITH CUBE`` — the data-cube operator (Section 4).

The cube over grouping attributes ``g1 … gd`` is the union of the
group-bys over all ``2^d`` subsets of the attributes, with the
attributes *outside* each subset set to a "don't care" marker (NULL in
SQL).  Each cube row therefore corresponds to one candidate
explanation: the remaining (attribute, value) pairs are the equality
predicates of the conjunction (Example 4.1).

The kernel is a *conditional-aggregate* cube: aggregate ``j`` reads its
own source table, so Algorithm 1's m queries ``q_j`` over
``σ_{w_j}(U)`` are one cube with an m-vector of states per group
instead of m cubes joined afterwards.  :func:`cube` is its
one-source case.

1. **Base pass** (:func:`base_states`): each source is grouped once at
   full granularity, and its aggregates' states land in the m-vector of
   that key.  A row in no source is never read.  The states are ints
   when every aggregate is COUNT(*), accumulators otherwise.
2. **Lattice rollup**: the cuboids are visited by decreasing number of
   kept dimensions, and each is rolled up from its smallest parent (the
   computed cuboid with one more dimension and the fewest groups) into
   fresh states — a parent is shared by several children (Gray et
   al.'s data cube; Harinarayan–Rajaraman–Ullman).
3. **Emit**: one row per group, cuboids in :func:`grouping_sets` order
   and groups in first-occurrence order, with the don't-care marker in
   the dropped positions.  The grand total (last row) always exists.

Work is ``O(rows + Σ_cuboids |smallest parent|)``.  The row-wise
oracles the kernel is held equal to live in the test suite
(``tests/support/cube.py``).

Section 4.2's rewrite of the cube's NULL markers to the DUMMY constant,
which lets m separate cubes be equi-joined, is :func:`dummy_rewrite`;
Algorithm 1 emits DUMMY directly and needs no join.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import itemgetter
from typing import Callable, Dict, List, Sequence, Tuple, Union

from ..errors import QueryError
from ..obs import phase
from .aggregates import Accumulator, AggregateSpec
from .groupby import group_rows
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


# One group's m-vector of states: ints when every aggregate is
# COUNT(*), accumulators otherwise.
_GroupState = Union[List[int], List[Accumulator]]

#: A cuboid: its groups' states keyed by the kept dimensions' values.
_Cuboid = Dict[Row, _GroupState]


def base_states(
    sources: Sequence[Table],
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Tuple[_Cuboid, bool]:
    """Full-granularity m-vectors of states: one entry per distinct key.

    ``sources[j]`` feeds ``aggregates[j]``; sources that are the same
    table object are grouped once.  A key occurs if some source has a
    row with it, and an aggregate whose source has none keeps its empty
    state (0 for COUNT(*), a fresh accumulator otherwise).  Rejects
    NULL dimension values.  Returns the states and whether every
    aggregate is COUNT(*) (states are then lists of ints).
    """
    dims = list(dimensions)
    m = len(aggregates)
    count_only = all(a.kind == "count_star" for a in aggregates)
    feeds: Dict[int, Tuple[Table, List[int]]] = {}
    for j, source in enumerate(sources):
        feeds.setdefault(id(source), (source, []))[1].append(j)

    base: _Cuboid = {}
    rows = sum(len(source) for source, _ in feeds.values())
    with phase("cube.base_groups", rows=rows, dims=len(dims)) as base_ph:
        for source, js in feeds.values():
            if count_only:
                if dims:
                    counts = Counter(zip(*(source.column(d) for d in dims)))
                else:
                    counts = {(): len(source)} if len(source) else {}
                for key, count in counts.items():
                    state = base.get(key)
                    if state is None:
                        _reject_null_dimensions(key, dims)
                        state = base[key] = [0] * m
                    for j in js:
                        state[j] += count
                continue
            arg_cols = [
                (j, None if arg is None else source.column(arg))
                for j, arg in ((j, aggregates[j].argument) for j in js)
            ]
            for key, indices in group_rows(source, dims).items():
                state = base.get(key)
                if state is None:
                    _reject_null_dimensions(key, dims)
                    state = base[key] = _empty_state(aggregates, False)
                for j, col in arg_cols:
                    if col is None:
                        state[j].add_repeat(None, len(indices))
                    else:
                        state[j].add_many(col[i] for i in indices)
        base_ph.annotate(groups=len(base), count_only=count_only)
    return base, count_only


def _empty_state(
    aggregates: Sequence[AggregateSpec], count_only: bool
) -> _GroupState:
    if count_only:
        return [0] * len(aggregates)
    return [a.make_accumulator() for a in aggregates]


def _cuboids(
    base: _Cuboid,
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    count_only: bool,
) -> List[Tuple[Tuple[int, ...], _Cuboid]]:
    """Every cuboid, in :func:`grouping_sets` order, as (kept dimension
    positions, states keyed by the kept values).

    The full cuboid is *base* itself; every other one is rolled up from
    its smallest parent into fresh states, leaving the parent intact.
    """
    full = tuple(range(len(dimensions)))
    done: Dict[Tuple[int, ...], _Cuboid] = {}
    order = [
        kept
        for size in range(len(full), -1, -1)
        for kept in combinations(full, size)
    ]
    for kept in order:
        with phase("cube.grouping_set") as set_ph:
            if kept == full:
                child = base
            else:
                parent_kept = min(
                    (
                        tuple(sorted(kept + (extra,)))
                        for extra in full
                        if extra not in kept
                    ),
                    key=lambda p: len(done[p]),
                )
                child = _rollup(
                    done[parent_kept],
                    _projection([parent_kept.index(i) for i in kept]),
                    aggregates,
                    count_only,
                )
            if not kept and not child:
                # The grand total exists even when no source has a row.
                child = {(): _empty_state(aggregates, count_only)}
            done[kept] = child
            names = ",".join(dimensions[i] for i in kept)
            set_ph.annotate(set=f"({names})", groups=len(child))
    return [(kept, done[kept]) for kept in order]


def _rollup(
    parent: _Cuboid,
    project: Callable[[Row], Row],
    aggregates: Sequence[AggregateSpec],
    count_only: bool,
) -> _Cuboid:
    """Merge *parent*'s states into fresh ones keyed by ``project(key)``."""
    child: _Cuboid = {}
    if count_only:
        for key, state in parent.items():
            key = project(key)
            into = child.get(key)
            if into is None:
                child[key] = state[:]
            else:
                for j, count in enumerate(state):
                    into[j] += count
        return child
    for key, state in parent.items():
        key = project(key)
        into = child.get(key)
        if into is None:
            into = child[key] = _empty_state(aggregates, False)
        for acc, part in zip(into, state):
            acc.merge(part)
    return child


def _projection(positions: List[int]) -> Callable[[Row], Row]:
    """The function that keeps *positions* of a key tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda key: (key[i],)
    return lambda key: ()


def cube_from_base_states(
    base: _Cuboid,
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    count_only: bool,
    *,
    dont_care: Value = NULL,
) -> Table:
    """Finish a cube from full-granularity :func:`base_states`.

    Rolls the states up the lattice and emits the table: columns
    ``dimensions + aggregate aliases``, *dont_care* in the dropped
    positions, the grand total last.  *base* is read, never changed.
    The incremental delta builder feeds this with the states it
    maintains under writes; running the *identical* rollup and emit is
    what keeps patched tables identical in content to cold ones.
    """
    d = len(dimensions)
    dim_cols: List[List[Value]] = [[] for _ in range(d)]
    value_cols: List[List[Value]] = [[] for _ in aggregates]
    nrows = 0
    for kept, cuboid in _cuboids(base, dimensions, aggregates, count_only):
        n = len(cuboid)
        nrows += n
        kept_cols = dict(zip(kept, zip(*cuboid))) if kept else {}
        for i, col in enumerate(dim_cols):
            col.extend(kept_cols[i] if i in kept_cols else [dont_care] * n)
        states = cuboid.values()
        for j, col in enumerate(value_cols):
            if count_only:
                col.extend([state[j] for state in states])
            else:
                col.extend([state[j].result() for state in states])
    return Table.from_columns(
        list(dimensions) + [a.alias for a in aggregates],
        dim_cols + value_cols,
        nrows=nrows,
    )


def _validate_cube_args(
    sources: Sequence[Table],
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> None:
    """Raise :class:`~repro.errors.QueryError` for no aggregate, a
    source count other than one per aggregate, duplicate dimensions,
    unknown columns, duplicate aggregate aliases, or aliases clashing
    with dimensions."""
    if not aggregates:
        raise QueryError("a cube needs at least one aggregate")
    if len(sources) != len(aggregates):
        raise QueryError(
            f"{len(aggregates)} aggregates need as many sources, "
            f"not {len(sources)}"
        )
    if len(set(dimensions)) != len(dimensions):
        raise QueryError(f"duplicate cube dimensions: {dimensions}")
    aliases = [a.alias for a in aggregates]
    if len(set(aliases)) != len(aliases):
        raise QueryError(f"duplicate aggregate aliases: {aliases}")
    if set(aliases) & set(dimensions):
        raise QueryError("aggregate aliases clash with cube dimensions")
    for source, aggregate in zip(sources, aggregates):
        source.positions(dimensions)  # raise early on unknown columns
        if aggregate.argument is not None:
            source.position(aggregate.argument)


def conditional_cube(
    sources: Sequence[Table],
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    *,
    dont_care: Value = NULL,
) -> Table:
    """One cube whose aggregate ``j`` reads only ``sources[j]``.

    Equal to cubing each source by its own aggregate and full-outer-
    joining the cubes on the dimensions, with every aggregate missing
    from a group reading its value over no rows (0 for counts, NULL
    otherwise).  *dont_care* marks the dropped dimensions.
    """
    _validate_cube_args(sources, dimensions, aggregates)
    with phase("cube", dims=len(dimensions)) as ph:
        base, count_only = base_states(sources, dimensions, aggregates)
        result = cube_from_base_states(
            base, dimensions, aggregates, count_only, dont_care=dont_care
        )
        ph.annotate(groups=len(result))
    return result


def cube(
    table: Table,
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """The data cube of *table*: :func:`conditional_cube` with every
    aggregate reading *table*.

    Output columns are ``dimensions + aggregate aliases``; "don't care"
    dimensions carry NULL.  Groups are only emitted for value
    combinations present in the data (plus the grand-total row, which
    always exists, even on empty input).
    """
    return conditional_cube([table] * len(aggregates), dimensions, aggregates)


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
