"""Definitions 2.5 and 2.6 checked literally, and semijoin reduction.

Program P (:mod:`repro.core.intervention`) computes the minimal
intervention Δ^φ without ever asking whether a Δ is valid; these
predicates ask exactly that, so tests can check P's output against
the definitions.  :func:`project_universal` is the definitional
reduction ``R_i = Π_{A_i}(U(D))`` the full reducer is held to.
"""

from __future__ import annotations

from typing import Optional

from repro.core.predicates import Predicate
from repro.engine.database import Database, Delta
from repro.engine.reduction import RowSets, reduce_row_sets
from repro.engine.schema import DatabaseSchema
from repro.engine.table import Table
from repro.engine.universal import JoinTree, universal_table


def is_closed(database: Database, delta: Delta) -> bool:
    """Definition 2.5: Δ is closed under cascade and backward cascade."""
    for fk in database.schema.foreign_keys:
        source = database.relation(fk.source)
        target = database.relation(fk.target)
        src_pos = source.schema.indexes_of(fk.source_attrs)
        tgt_pos = target.schema.indexes_of(fk.target_attrs)
        deleted_target_keys = {
            tuple(row[i] for i in tgt_pos) for row in delta.rows_for(fk.target)
        }
        # Forward cascade: deleting the referenced tuple deletes all
        # referencing tuples.
        for row in source:
            key = tuple(row[i] for i in src_pos)
            if key in deleted_target_keys and row not in delta.rows_for(fk.source):
                return False
        if fk.back_and_forth:
            deleted_source_keys = {
                tuple(row[i] for i in src_pos)
                for row in delta.rows_for(fk.source)
            }
            # Backward cascade: deleting the referencing tuple deletes
            # the referenced tuple.
            for row in target:
                key = tuple(row[i] for i in tgt_pos)
                if key in deleted_source_keys and row not in delta.rows_for(
                    fk.target
                ):
                    return False
    return True


def is_valid_intervention(
    database: Database, phi: Predicate, delta: Delta
) -> bool:
    """All three conditions of Definition 2.6 (not necessarily minimal)."""
    if not is_closed(database, delta):
        return False
    residual = database.subtract(delta)
    rowsets: RowSets = {
        name: set(rel.rows()) for name, rel in residual.relations.items()
    }
    if not is_semijoin_reduced(database.schema, rowsets):
        return False
    residual_universal = universal_table(residual)
    return len(residual_universal.filter(phi.to_expression())) == 0


def database_is_reduced(
    database: Database, join_tree: Optional[JoinTree] = None
) -> bool:
    """True iff *database* is already semijoin-reduced."""
    rowsets: RowSets = {
        name: set(rel.rows()) for name, rel in database.relations.items()
    }
    return is_semijoin_reduced(database.schema, rowsets, join_tree)


def is_semijoin_reduced(
    schema: DatabaseSchema,
    rowsets: RowSets,
    join_tree: Optional[JoinTree] = None,
) -> bool:
    """True iff running the full reducer would drop no tuple."""
    probe = {name: set(rows) for name, rows in rowsets.items()}
    reduce_row_sets(schema, probe, join_tree)
    return all(probe[name] == set(rowsets[name]) for name in rowsets)


def project_universal(
    universal: Table, schema: DatabaseSchema, relation: str
) -> Table:
    """``Π_{A_i}(U)`` — project the universal table onto one relation.

    Output columns are unqualified attribute names; duplicates are
    eliminated, so the result is exactly the semijoin-reduced relation
    content.
    """
    rs = schema.relation(relation)
    qualified = [f"{relation}.{a}" for a in rs.attribute_names]
    projected = universal.project(qualified, distinct=True)
    return projected.rename(dict(zip(qualified, rs.attribute_names)))
