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


class TestNullJoinKeys:
    """A NULL join key joins nothing on every path: ``U(D)``, the
    semijoin reducer, program P's support postings and cascades, and
    the integrity check all read it as SQL does."""

    @staticmethod
    def null_keyed_db():
        from repro.engine.types import NULL

        return Database(
            rex.schema(),
            {
                "Author": [("A1", "JG", "UW", "edu"), (NULL, "RR", "MS", "com")],
                "Authored": [("A1", "P1"), (NULL, "P2")],
                "Publication": [("P1", 2001, "SIGMOD"), ("P2", 2002, "VLDB")],
            },
        )

    def test_reducer_drops_what_u_never_joins(self):
        db = self.null_keyed_db()
        assert len(universal_table(db)) == 1
        reduced, removed = semijoin_reduce(db)
        assert {n: len(removed.rows_for(n)) for n in db.relation_names} == {
            "Author": 1,
            "Authored": 1,
            "Publication": 1,
        }
        assert ("P2", 2002, "VLDB") in removed.rows_for("Publication")
        assert reduced == Database(db.schema, oracle_reduce(db))

    def test_delta_reducer_calls_them_unsupported(self):
        from repro.engine.reduction import DeltaReducer

        db = self.null_keyed_db()
        reducer = DeltaReducer.for_database(db)
        dropped = {reducer.entries[rid] for rid in reducer.start().drop(())}
        _, removed = semijoin_reduce(db)
        assert dropped == {
            (n, row) for n in db.relation_names for row in removed.rows_for(n)
        }

    def test_both_schedules_delete_the_dangling_tuples(self):
        from repro.core.intervention import make_strategy
        from repro.core.predicates import AtomicPredicate, Explanation

        db = self.null_keyed_db()
        phi = Explanation.of(AtomicPredicate("Author", "name", "=", "JG"))
        for strategy in ("fixpoint", "closure"):
            delta = make_strategy(db, strategy=strategy).compute(phi).delta
            assert [len(delta.rows_for(n)) for n in db.relation_names] == [2, 2, 2]

    def test_a_null_foreign_key_is_no_reference(self):
        from repro.engine.types import NULL

        db = Database(
            rex.schema(),
            {
                "Author": [("A1", "JG", "UW", "edu")],
                "Authored": [("A1", "P1"), (NULL, "P1")],
                "Publication": [("P1", 2001, "SIGMOD")],
            },
        )
        db.check_integrity()  # SQL: a NULL foreign key references nothing
