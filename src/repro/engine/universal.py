"""The universal relation ``U(D) = R_1 ⋈ … ⋈ R_k`` (Section 2).

The foreign keys of an acyclic schema form a join tree over the
relations; :class:`JoinTree` materializes that tree, which drives
both the universal-relation computation here and the semijoin
reducer in :mod:`repro.engine.reduction`.

Schemas declared with ``require_acyclic=False`` may carry more foreign
keys than a tree needs (TPC-H's partsupp diamond closes a cycle
through lineitem–orders–customer–nation–supplier–partsupp).  The BFS
spanning tree still drives the join order; the left-over foreign keys
become :attr:`JoinTree.residual_edges` and are enforced as equality
filters on the assembled rows, so ``U(D)`` remains the natural join
over *all* declared keys, not just the spanning tree.

Universal-table columns are *qualified* (``Relation.attr``), matching
the paper's predicate syntax ``[R_i.A op c]``.  Join columns from both
sides are kept (e.g. both ``Authored.id`` and ``Author.id`` appear,
always equal within a row), so projecting a universal row onto any
relation's attribute set is a simple column selection.

``U`` is a function of D alone, so :func:`universal_table` keeps it as
a :meth:`~repro.engine.database.Database.derived` entry: built once per
database version and shared by every φ and every caller until a write.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SchemaError
from ..obs import phase
from .database import Database
from .schema import DatabaseSchema, ForeignKey
from .table import Table
from .types import join_key


class JoinTree:
    """The foreign-key join tree of an acyclic schema.

    Edges are the schema's foreign keys.  ``traversal_order`` is a BFS
    order from an arbitrary root; each entry after the first carries
    the foreign key linking the new relation to the already-joined
    part.
    """

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self.root = schema.relations[0].name
        adjacency: Dict[str, List[ForeignKey]] = {
            name: [] for name in schema.relation_names
        }
        for fk in schema.foreign_keys:
            adjacency[fk.source].append(fk)
            adjacency[fk.target].append(fk)
        order: List[Tuple[str, Optional[ForeignKey]]] = [(self.root, None)]
        seen: Set[str] = {self.root}
        frontier = [self.root]
        while frontier:
            node = frontier.pop(0)
            for fk in adjacency[node]:
                neighbour = fk.target if fk.source == node else fk.source
                if neighbour in seen:
                    continue
                seen.add(neighbour)
                order.append((neighbour, fk))
                frontier.append(neighbour)
        if len(order) != len(schema.relations):
            missing = sorted(set(schema.relation_names) - seen)
            raise SchemaError(f"join tree disconnected; unreachable: {missing}")
        self.traversal_order = order
        #: parent[r] = (parent relation, fk joining r to parent); root absent.
        self.parent: Dict[str, Tuple[str, ForeignKey]] = {}
        for name, fk in order[1:]:
            assert fk is not None
            other = fk.target if fk.source == name else fk.source
            self.parent[name] = (other, fk)
        #: Foreign keys not used by the BFS spanning tree (cycle-closing
        #: edges of a ``require_acyclic=False`` schema).  Both endpoints
        #: are always in the tree, so these become row filters on the
        #: assembled universal table.  Empty for tree schemas.
        tree_fks = {id(fk) for _, fk in order[1:] if fk is not None}
        self.residual_edges: Tuple[ForeignKey, ...] = tuple(
            fk for fk in schema.foreign_keys if id(fk) not in tree_fks
        )

    def children_of(self, name: str) -> List[str]:
        """Direct children of *name* in the rooted tree."""
        return [n for n, (p, _) in self.parent.items() if p == name]

    def bottom_up_edges(self) -> List[Tuple[str, str, ForeignKey]]:
        """(child, parent, fk) triples, leaves first."""
        ordered = [name for name, _ in self.traversal_order]
        return [
            (name, self.parent[name][0], self.parent[name][1])
            for name in reversed(ordered)
            if name in self.parent
        ]

    def top_down_edges(self) -> List[Tuple[str, str, ForeignKey]]:
        """(child, parent, fk) triples, root's children first."""
        return list(reversed(self.bottom_up_edges()))


def fk_join_columns(fk: ForeignKey, side: str) -> List[str]:
    """The qualified join columns contributed by one side of *fk*.

    ``side`` is the relation name; it must be the foreign key's source
    or target.
    """
    if side == fk.source:
        return [f"{fk.source}.{a}" for a in fk.source_attrs]
    if side == fk.target:
        return [f"{fk.target}.{a}" for a in fk.target_attrs]
    raise SchemaError(f"{side!r} is not a side of foreign key {fk}")


def universal_table(database: Database) -> Table:
    """Materialize ``U(D)`` with qualified columns.

    Joins follow the join tree in BFS order; each step is a hash join
    on the linking foreign key's attribute lists.  For a single-table
    schema this is just the qualified table.

    ``U`` depends on the database alone, so it is built once per
    database version (:meth:`Database.derived`): every caller on an
    unchanged database shares one (immutable) table.  It keeps the
    indexes built on it (:meth:`Table.keep_indexes`; a single-table U
    is a relation view and shares the snapshot's), so an equality
    selection ``σ_{R.A = c}(U)`` reads the rows of one posting, built
    once per version, instead of every cell of ``R.A``.
    """
    return database.derived("universal", lambda: _build(database))


def _build(database: Database) -> Table:
    tree = JoinTree(database.schema)
    with phase(
        "universal_table", relations=len(database.schema.relations)
    ) as ph:
        result: Optional[Table] = None
        for name, fk in tree.traversal_order:
            piece = Table.from_relation(
                database.relation(name), qualify=True
            )
            if result is None:
                result = piece
                continue
            assert fk is not None
            other = fk.target if fk.source == name else fk.source
            left_on = fk_join_columns(fk, other)
            right_on = fk_join_columns(fk, name)
            # 'other' is already inside result; keep all of piece's
            # columns (including its join columns, for projections onto
            # that relation) by renaming nothing and joining on the
            # equality.
            result = _join_keep_all(result, piece, left_on, right_on)
        assert result is not None
        for fk in tree.residual_edges:
            result = _filter_residual(result, fk)
        ph.annotate(rows=len(result))
    return result.keep_indexes()


def _filter_residual(table: Table, fk: ForeignKey) -> Table:
    """Keep rows satisfying a cycle-closing foreign key's equality.

    Both sides of *fk* are already joined in, so the constraint is a
    plain per-row comparison of the two qualified column tuples; a NULL
    key matches nothing, as in the tree joins.
    """
    source = zip(*(table.column(c) for c in fk_join_columns(fk, fk.source)))
    target = zip(*(table.column(c) for c in fk_join_columns(fk, fk.target)))
    keep = [
        i
        for i, (s, t) in enumerate(zip(source, target))
        if s == t and join_key(s) is not None
    ]
    if len(keep) == len(table):
        return table
    data = [[col[i] for i in keep] for col in table.column_arrays()]
    return Table.from_columns(list(table.columns), data, nrows=len(keep))


def _join_keep_all(
    left: Table, right: Table, left_on: Sequence[str], right_on: Sequence[str]
) -> Table:
    """Hash join keeping *all* right columns (including join columns).

    Columnar: probe with zipped key columns, collect gather lists of
    matching row positions, then build each output column with one
    gather — the universal table is assembled without ever
    concatenating row tuples.
    """
    index = right.index_positions(right_on)
    out_columns = list(left.columns) + list(right.columns)
    left_key_cols = [left.column(c) for c in left_on]
    left_idx: List[int] = []
    right_idx: List[int] = []
    for i, key in enumerate(zip(*left_key_cols)):
        matches = index.get(key)
        if matches:
            for j in matches:
                left_idx.append(i)
                right_idx.append(j)
    data = [[col[i] for i in left_idx] for col in left.column_arrays()]
    data.extend(
        [col[j] for j in right_idx] for col in right.column_arrays()
    )
    return Table.from_columns(out_columns, data, nrows=len(left_idx))
