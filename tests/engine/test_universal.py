"""Tests for the universal relation (Figure 4 of the paper)."""

import pytest

from repro.datasets import running_example as rex
from repro.engine.universal import (
    JoinTree,
    fk_join_columns,
    universal_table,
)
from repro.errors import SchemaError

from support.fixtures import example_210_database, example_29_database
from support.intervention import project_universal


@pytest.fixture
def db():
    return rex.database()


class TestJoinTree:
    def test_covers_all_relations(self, db):
        tree = JoinTree(db.schema)
        names = [name for name, _ in tree.traversal_order]
        assert sorted(names) == sorted(db.schema.relation_names)

    def test_root_has_no_parent(self, db):
        tree = JoinTree(db.schema)
        assert tree.root not in tree.parent

    def test_edges_both_orders(self, db):
        tree = JoinTree(db.schema)
        bottom_up = tree.bottom_up_edges()
        top_down = tree.top_down_edges()
        assert len(bottom_up) == len(db.schema.relations) - 1
        assert list(reversed(bottom_up)) == top_down

    def test_children_of(self, db):
        tree = JoinTree(db.schema)
        all_children = [c for n in db.schema.relation_names for c in tree.children_of(n)]
        assert sorted(all_children) == sorted(tree.parent)


class TestHelpers:
    def test_fk_join_columns(self, db):
        fk = db.schema.foreign_keys[0]  # Authored.id -> Author.id
        assert fk_join_columns(fk, "Authored") == ["Authored.id"]
        assert fk_join_columns(fk, "Author") == ["Author.id"]
        with pytest.raises(SchemaError):
            fk_join_columns(fk, "Publication")


class TestUniversalTable:
    def test_figure_4_rows(self, db):
        """The universal table of Figure 4: six rows u1..u6."""
        u = universal_table(db)
        assert len(u) == 6
        projected = u.project(
            ["Author.id", "Publication.pubid", "Author.name", "Author.inst",
             "Author.dom", "Publication.year", "Publication.venue"],
            distinct=True,
        )
        expected = {
            ("A1", "P1", "JG", "C.edu", "edu", 2001, "SIGMOD"),
            ("A2", "P1", "RR", "M.com", "com", 2001, "SIGMOD"),
            ("A1", "P2", "JG", "C.edu", "edu", 2011, "VLDB"),
            ("A3", "P2", "CM", "I.com", "com", 2011, "VLDB"),
            ("A2", "P3", "RR", "M.com", "com", 2001, "SIGMOD"),
            ("A3", "P3", "CM", "I.com", "com", 2001, "SIGMOD"),
        }
        assert set(projected.rows()) == expected

    def test_join_columns_agree_within_rows(self, db):
        u = universal_table(db)
        i = u.position("Author.id")
        j = u.position("Authored.id")
        assert all(row[i] == row[j] for row in u.rows())

    def test_dangling_tuples_do_not_join(self, db):
        db.relation("Author").insert(("A9", "XX", "Y.edu", "edu"))
        u = universal_table(db)
        assert len(u) == 6  # A9 has no papers

    def test_single_table_universal(self):
        from repro.engine.database import Database
        from repro.engine.schema import single_table_schema

        db1 = Database(
            single_table_schema("T", ["k", "v"], ["k"]), {"T": [(1, "a")]}
        )
        u = universal_table(db1)
        assert u.columns == ("T.k", "T.v")
        assert u.rows() == [(1, "a")]

    def test_project_universal(self, db):
        u = universal_table(db)
        authors = project_universal(u, db.schema, "Author")
        assert authors.columns == ("id", "name", "inst", "dom")
        assert set(authors.rows()) == {rex.R1, rex.R2, rex.R3}

    def test_project_universal_drops_dangling(self, db):
        # Delete all of JG's papers: projecting U onto Author loses JG.
        db.relation("Authored").delete(rex.S1)
        db.relation("Authored").delete(rex.S3)
        u = universal_table(db)
        authors = project_universal(u, db.schema, "Author")
        assert set(authors.rows()) == {rex.R2, rex.R3}

    def test_chain_universal(self):
        db = example_29_database()
        u = universal_table(db)
        assert len(u) == 1

    def test_example_210_universal(self):
        db = example_210_database()
        u = universal_table(db)
        assert len(u) == 2  # paths through b and b'


class TestUniversalPerVersion:
    """U is built once per database version and shared until a write."""

    def test_unchanged_database_shares_one_table(self, db):
        assert universal_table(db) is universal_table(db)

    @pytest.mark.parametrize(
        "write",
        [
            lambda db: db.relation("Author").insert_many(
                [("A9", "XX", "Y.edu", "edu")]
            ),
            lambda db: db.relation("Authored").delete_many([rex.S1]),
            lambda db: db.relation("Authored").clear(),
            lambda db: db.relations.__setitem__(
                "Publication", db.relation("Publication").without([rex.T2])
            ),
        ],
        ids=["insert_many", "delete_many", "clear", "swap_relation"],
    )
    def test_a_write_retires_the_table(self, db, write):
        before = universal_table(db)
        write(db)
        after = universal_table(db)
        assert after is not before
        assert after == universal_table(db.copy())

    def test_a_fingerprint_read_after_a_write_releases_the_old_table(self, db):
        import gc
        import weakref

        universal_table(db)
        old = weakref.ref(db.relation("Publication"))
        db.relations["Publication"] = db.relation("Publication").without([rex.T2])
        gc.collect()
        assert old() is not None  # still pinned by the stale U
        db.content_fingerprint()
        gc.collect()
        assert old() is None

    def test_apply_delta_ranks_from_the_post_write_table(self):
        from repro.core.explainer import Explainer
        from repro.datasets import natality

        db = natality.generate(rows=400, seed=5)
        question = natality.q_race_question()
        attrs = ["Birth.marital", "Birth.tobacco"]
        explainer = Explainer(db, question, attrs)
        explainer.top(3)
        before = explainer.universal
        gone = sorted(db.relation("Birth").rows())[:50]
        explainer.apply_delta({"Birth": {"delete": gone}})
        assert explainer.universal is universal_table(db)
        assert explainer.universal is not before
        assert len(explainer.universal) == len(before) - 50
        fresh = Explainer(db.copy(), question, attrs)
        assert explainer.top(3) == fresh.top(3)

    def test_a_cube_build_filters_once_per_aggregate(self, monkeypatch):
        from repro.core.cube_algorithm import build_explanation_table
        from repro.datasets import natality
        from repro.engine.table import Table

        db = natality.generate(rows=400, seed=5)
        question = natality.q_race_prime_question()
        calls = []
        filter_ = Table.filter

        def counting(table, predicate):
            calls.append(predicate)
            return filter_(table, predicate)

        monkeypatch.setattr(Table, "filter", counting)
        build_explanation_table(db, question, ["Birth.marital"])
        assert len(calls) == len(question.query.aggregates) == 4
