"""Tests for the semijoin full reducer against the projection oracle."""


from repro.datasets import running_example as rex
from repro.engine.database import Database
from repro.engine.reduction import reduce_row_sets, semijoin_reduce
from repro.engine.universal import universal_table

from support.fixtures import example_29_database
from support.intervention import (
    database_is_reduced,
    is_semijoin_reduced,
    project_universal,
)


def oracle_reduce(db):
    """R_i = Π_{A_i}(U(D)) — the definitional reduction."""
    u = universal_table(db)
    return {
        name: set(project_universal(u, db.schema, name).rows())
        for name in db.schema.relation_names
    }


class TestFullReducer:
    def test_already_reduced_instance(self):
        db = rex.database()
        assert database_is_reduced(db)
        reduced, removed = semijoin_reduce(db)
        assert removed.is_empty()
        assert reduced == db

    def test_dangling_author_removed(self):
        db = rex.database()
        db.relation("Author").insert(("A9", "XX", "Y.edu", "edu"))
        assert not database_is_reduced(db)
        reduced, removed = semijoin_reduce(db)
        assert removed.rows_for("Author") == {("A9", "XX", "Y.edu", "edu")}
        assert database_is_reduced(reduced)

    def test_dangling_publication_removed(self):
        db = rex.database()
        db.relation("Publication").insert(("P9", 1999, "PODS"))
        reduced, removed = semijoin_reduce(db)
        assert removed.rows_for("Publication") == {("P9", 1999, "PODS")}

    def test_cascading_removal(self):
        # Deleting a publication leaves its Authored rows dangling,
        # which in turn can leave an author dangling.
        db = rex.database()
        db.relation("Publication").delete(rex.T1)
        db.relation("Publication").delete(rex.T3)
        reduced, removed = semijoin_reduce(db)
        # s1, s2, s5, s6 dangle; then RR (only on P1, P3) dangles too.
        assert removed.rows_for("Authored") == {rex.S1, rex.S2, rex.S5, rex.S6}
        assert removed.rows_for("Author") == {rex.R2}
        assert database_is_reduced(reduced)

    def test_matches_projection_oracle(self):
        db = rex.database()
        db.relation("Author").insert(("A9", "XX", "Y.edu", "edu"))
        db.relation("Publication").insert(("P9", 1999, "PODS"))
        reduced, _ = semijoin_reduce(db)
        expected = oracle_reduce(db)
        for name in db.schema.relation_names:
            assert set(reduced.relation(name).rows()) == expected[name]

    def test_matches_oracle_on_chain(self):
        db = example_29_database()
        db.relation("R2").insert(("dangling",))
        reduced, removed = semijoin_reduce(db)
        expected = oracle_reduce(db)
        for name in db.schema.relation_names:
            assert set(reduced.relation(name).rows()) == expected[name]
        assert removed.rows_for("R2") == {("dangling",)}

    def test_reduce_row_sets_in_place(self):
        db = rex.database()
        rowsets = {
            name: set(rel.rows()) for name, rel in db.relations.items()
        }
        rowsets["Author"].add(("A9", "XX", "Y.edu", "edu"))
        result = reduce_row_sets(db.schema, rowsets)
        assert result is rowsets
        assert ("A9", "XX", "Y.edu", "edu") not in rowsets["Author"]

    def test_is_semijoin_reduced_does_not_mutate(self):
        db = rex.database()
        rowsets = {
            name: set(rel.rows()) for name, rel in db.relations.items()
        }
        rowsets["Author"].add(("A9", "XX", "Y.edu", "edu"))
        assert not is_semijoin_reduced(db.schema, rowsets)
        assert ("A9", "XX", "Y.edu", "edu") in rowsets["Author"]

    def test_idempotent(self):
        db = rex.database()
        db.relation("Author").insert(("A9", "XX", "Y.edu", "edu"))
        once, _ = semijoin_reduce(db)
        twice, removed = semijoin_reduce(once)
        assert removed.is_empty()
        assert once == twice

    def test_empty_relation_empties_everything(self):
        db = rex.database()
        db.relation("Publication").clear()
        reduced, _ = semijoin_reduce(db)
        assert reduced.total_rows() == 0

    def test_single_table_always_reduced(self):
        from repro.engine.schema import single_table_schema

        db = Database(
            single_table_schema("T", ["k"], ["k"]), {"T": [(1,), (2,)]}
        )
        assert database_is_reduced(db)
