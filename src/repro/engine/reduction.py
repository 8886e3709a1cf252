"""Semijoin reduction (the Yannakakis full reducer) for acyclic schemas.

A database is *semijoin-reduced* (the paper's term; "globally
consistent" in [Abiteboul-Hull-Vianu]) when every tuple of every
relation participates in at least one universal tuple:
``R_i = Π_{A_i}(U(D))`` for all i.  For an acyclic join tree the
classic two-pass semijoin program achieves this:

1. bottom-up: for each edge (child, parent), ``parent ⋉ child``;
2. top-down:  for each edge (child, parent), ``child ⋉ parent``.

Rule (ii) of the paper's recursive program **P** is exactly this
reduction applied to ``R_i - Δ_i``, so the fixpoint loop in
:mod:`repro.core.intervention` calls :func:`reduce_row_sets` on plain
row-set dictionaries for speed, while :func:`semijoin_reduce` offers
the same service at the :class:`Database` level.

Cyclic schemas (``require_acyclic=False``; TPC-H's partsupp diamond)
add the join tree's :attr:`~repro.engine.universal.JoinTree.residual_edges`
as extra semijoin pairs and iterate all passes to a fixpoint, because
one sweep no longer guarantees pairwise consistency.  Removal-only
semijoins are confluent, so the fixpoint is order-independent and
deterministic.  Note that for a cyclic join graph pairwise consistency
is necessary but not sufficient for global consistency; program P's
rule (i) restores the global property by seeding every tuple outside
``Π_{A_i}(σ_{¬φ} U(D))`` directly.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from .database import Database, Delta
from .schema import DatabaseSchema, ForeignKey
from .types import Row
from .universal import JoinTree

RowSets = Dict[str, Set[Row]]


def _semijoin_in_place(
    schema: DatabaseSchema,
    rowsets: RowSets,
    keep: str,
    keep_attrs: Sequence[str],
    probe: str,
    probe_attrs: Sequence[str],
) -> bool:
    """``rowsets[keep] ⋉ rowsets[probe]`` in place; True if rows dropped."""
    keep_pos = schema.relation(keep).indexes_of(keep_attrs)
    probe_pos = schema.relation(probe).indexes_of(probe_attrs)
    probe_keys = {
        tuple(row[i] for i in probe_pos) for row in rowsets[probe]
    }
    survivors = {
        row
        for row in rowsets[keep]
        if tuple(row[i] for i in keep_pos) in probe_keys
    }
    changed = len(survivors) != len(rowsets[keep])
    rowsets[keep] = survivors
    return changed


def _edge_attrs(
    fk: ForeignKey, side: str
) -> Tuple[str, ...]:
    """The join attributes of *fk* on relation *side*."""
    return fk.source_attrs if side == fk.source else fk.target_attrs


def reduce_row_sets(
    schema: DatabaseSchema,
    rowsets: RowSets,
    join_tree: Optional[JoinTree] = None,
) -> RowSets:
    """Full reducer over plain per-relation row sets (in place).

    Returns the same dict for convenience.  After the call, for every
    foreign-key edge both sides agree on their join values, which for
    an acyclic schema implies global consistency.
    """
    tree = join_tree or JoinTree(schema)

    def sweep() -> bool:
        changed = False
        for child, parent, fk in tree.bottom_up_edges():
            changed |= _semijoin_in_place(
                schema,
                rowsets,
                parent,
                _edge_attrs(fk, parent),
                child,
                _edge_attrs(fk, child),
            )
        for child, parent, fk in tree.top_down_edges():
            changed |= _semijoin_in_place(
                schema,
                rowsets,
                child,
                _edge_attrs(fk, child),
                parent,
                _edge_attrs(fk, parent),
            )
        for fk in tree.residual_edges:
            changed |= _semijoin_in_place(
                schema,
                rowsets,
                fk.source,
                _edge_attrs(fk, fk.source),
                fk.target,
                _edge_attrs(fk, fk.target),
            )
            changed |= _semijoin_in_place(
                schema,
                rowsets,
                fk.target,
                _edge_attrs(fk, fk.target),
                fk.source,
                _edge_attrs(fk, fk.source),
            )
        return changed

    if not tree.residual_edges:
        sweep()  # one Yannakakis double pass fully reduces a tree
        return rowsets
    while sweep():
        pass
    return rowsets


def semijoin_reduce(
    database: Database, join_tree: Optional[JoinTree] = None
) -> Tuple[Database, Delta]:
    """Reduce a database; returns (reduced database, removed tuples).

    The removed tuples are the *dangling* tuples that participate in no
    universal tuple.  The input database is not modified.
    """
    rowsets: RowSets = {
        name: set(rel.rows()) for name, rel in database.relations.items()
    }
    original = {name: set(rows) for name, rows in rowsets.items()}
    reduce_row_sets(database.schema, rowsets, join_tree)
    removed = Delta(
        database.schema,
        {name: original[name] - rowsets[name] for name in rowsets},
    )
    reduced = Database(database.schema)
    for name, rows in rowsets.items():
        reduced.relations[name].insert_many(rows)
    return reduced, removed
