"""Tests for the Relation tuple store."""

import pytest

from repro.engine.expressions import Col
from repro.engine.relation import Relation
from repro.engine.schema import make_schema
from repro.engine.table import Table
from repro.engine.types import NULL
from repro.errors import IntegrityError


@pytest.fixture
def rel():
    return Relation(make_schema("Author", ["id", "name", "inst"], ["id"]))


class TestInsert:
    def test_insert_and_len(self, rel):
        assert rel.insert(("A1", "JG", "C.edu"))
        assert len(rel) == 1
        assert ("A1", "JG", "C.edu") in rel

    def test_duplicate_row_is_noop(self, rel):
        rel.insert(("A1", "JG", "C.edu"))
        assert not rel.insert(("A1", "JG", "C.edu"))
        assert len(rel) == 1

    def test_pk_violation(self, rel):
        rel.insert(("A1", "JG", "C.edu"))
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            rel.insert(("A1", "Other", "X.edu"))

    def test_arity_violation(self, rel):
        with pytest.raises(IntegrityError, match="arity"):
            rel.insert(("A1", "JG"))

    def test_insert_many_counts_new(self, rel):
        n = rel.insert_many([("A1", "a", "x"), ("A2", "b", "y"), ("A1", "a", "x")])
        assert n == 2

    def test_composite_pk(self):
        r = Relation(make_schema("Authored", ["id", "pubid"], ["id", "pubid"]))
        r.insert(("A1", "P1"))
        r.insert(("A1", "P2"))  # same id, different pubid: fine
        assert len(r) == 2


class TestDelete:
    def test_delete(self, rel):
        rel.insert(("A1", "JG", "C.edu"))
        assert rel.delete(("A1", "JG", "C.edu"))
        assert len(rel) == 0
        assert not rel.delete(("A1", "JG", "C.edu"))

    def test_delete_frees_pk(self, rel):
        rel.insert(("A1", "JG", "C.edu"))
        rel.delete(("A1", "JG", "C.edu"))
        rel.insert(("A1", "Other", "X.edu"))  # pk reusable after delete
        assert len(rel) == 1

    def test_delete_many(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", "y")])
        assert rel.delete_many([("A1", "a", "x"), ("A9", "?", "?")]) == 1

    def test_clear(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", "y")])
        rel.clear()
        assert len(rel) == 0 and rel.lookup_pk(("A1",)) is None


class TestLookups:
    def test_lookup_pk(self, rel):
        rel.insert(("A1", "JG", "C.edu"))
        assert rel.lookup_pk(("A1",)) == ("A1", "JG", "C.edu")
        assert rel.lookup_pk(("A9",)) is None

    def test_pk_values(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", "y")])
        assert rel.pk_values() == {("A1",), ("A2",)}

    def test_join_index(self, rel):
        rel.insert_many(
            [("A1", "a", "x"), ("A2", "b", "x"), ("A3", "c", "y")]
        )
        view = Table.from_relation(rel)
        index = view.index_positions(["inst"])
        assert set(index) == {("x",), ("y",)}
        assert sorted(view.rows()[i][0] for i in index[("x",)]) == ["A1", "A2"]

    def test_index_excludes_null_keys(self, rel):
        rel.insert_many([("A1", "a", NULL), ("A2", "b", "y")])
        index = Table.from_relation(rel).index_positions(["inst"])
        assert set(index) == {("y",)}

    def test_index_cache_invalidated_on_mutation(self, rel):
        rel.insert(("A1", "a", "x"))
        index1 = Table.from_relation(rel).index_positions(["inst"])
        rel.insert(("A2", "b", "x"))
        index2 = Table.from_relation(rel).index_positions(["inst"])
        assert len(index2[("x",)]) == 2
        assert index1 is not index2

    def test_project_values(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", "x"), ("A3", "c", NULL)])
        assert rel.project_values("inst") == {"x"}

    def test_value_of(self, rel):
        rel.insert(("A1", "a", "x"))
        assert rel.value_of(("A1", "a", "x"), "name") == "a"


class TestColumnarViews:
    def test_column_arrays_match_rows(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", NULL)])
        rows = rel.row_list()
        cols = rel.column_arrays()
        assert list(zip(*cols)) == rows
        assert rel.column_array("name") == [r[1] for r in rows]

    def test_snapshot_cached_within_version(self, rel):
        rel.insert(("A1", "a", "x"))
        assert rel.row_list() is rel.row_list()
        assert rel.column_arrays() is rel.column_arrays()

    def test_snapshot_invalidated_by_insert(self, rel):
        rel.insert(("A1", "a", "x"))
        before = rel.row_list()
        version = rel.version
        rel.insert(("A2", "b", "y"))
        assert rel.version > version
        after = rel.row_list()
        assert after is not before
        assert len(after) == 2

    def test_snapshot_invalidated_by_delete_and_clear(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", "y")])
        cols = rel.column_arrays()
        rel.delete(("A1", "a", "x"))
        assert rel.column_arrays() is not cols
        assert len(rel.column_arrays()[0]) == 1
        cols = rel.column_arrays()
        rel.clear()
        assert rel.column_arrays() is not cols
        assert rel.column_arrays() == [[], [], []]

    def test_old_snapshot_survives_mutation(self, rel):
        # Tables adopt the snapshot lists zero-copy; mutating the
        # relation afterwards must produce *new* lists, leaving any
        # previously built Table unchanged.
        rel.insert(("A1", "a", "x"))
        t = Table.from_relation(rel)
        rel.insert(("A2", "b", "y"))
        assert len(t) == 1
        assert t.rows() == [("A1", "a", "x")]
        t2 = Table.from_relation(rel)
        assert len(t2) == 2

    def test_join_index_invalidated_alongside_column_views(self, rel):
        # Reading column views must not defeat the mutation-counter
        # invalidation of the snapshot's join indexes (and vice versa).
        rel.insert(("A1", "a", "x"))
        rel.column_arrays()
        index1 = Table.from_relation(rel).index_positions(["inst"])
        rel.insert(("A2", "b", "x"))
        rel.column_arrays()
        index2 = Table.from_relation(rel).index_positions(["inst"])
        assert index1 is not index2
        assert len(index2[("x",)]) == 2

    def test_join_index_shared_per_version(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", "x")])
        old = Table.from_relation(rel)
        assert old.index_positions(["inst"]) is Table.from_relation(
            rel
        ).index_positions(["inst"])
        # Qualified and unqualified views of one version share one
        # index: the cache is keyed by column positions.
        assert old.index_positions(["inst"]) is Table.from_relation(
            rel, qualify=True
        ).index_positions(["Author.inst"])
        rel.delete(("A1", "a", "x"))
        rel.insert(("A3", "c", "x"))
        new = Table.from_relation(rel)
        assert new.index_positions(["inst"]) is not old.index_positions(["inst"])
        # The pre-mutation view still indexes its own rows.
        for view, ids in ((old, ["A1", "A2"]), (new, ["A2", "A3"])):
            rows = view.rows()
            positions = view.index_positions(["inst"])[("x",)]
            assert sorted(rows[i][0] for i in positions) == ids

    def test_derived_tables_do_not_share_join_index(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", "y")])
        view = Table.from_relation(rel)
        shared = view.index_positions(["inst"])
        taken = view.take(shared[("y",)])
        filtered = view.filter(Col("inst").eq("y"))
        for derived in (taken, filtered):
            index = derived.index_positions(["inst"])
            assert index is not shared
            assert index == {("y",): [0]}
        assert view.index_positions(["inst"]) is shared

    def test_copy_gets_fresh_snapshot(self, rel):
        rel.insert(("A1", "a", "x"))
        rel.row_list()
        clone = rel.copy()
        clone.insert(("A2", "b", "y"))
        assert len(rel.row_list()) == 1
        assert len(clone.row_list()) == 2


class TestCopies:
    def test_copy_is_independent(self, rel):
        rel.insert(("A1", "a", "x"))
        clone = rel.copy()
        clone.insert(("A2", "b", "y"))
        assert len(rel) == 1 and len(clone) == 2

    def test_restricted_to(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", "y")])
        sub = rel.restricted_to([("A1", "a", "x"), ("A9", "?", "?")])
        assert sub.rows() == {("A1", "a", "x")}

    def test_without(self, rel):
        rel.insert_many([("A1", "a", "x"), ("A2", "b", "y")])
        out = rel.without([("A1", "a", "x")])
        assert out.rows() == {("A2", "b", "y")}
        assert len(rel) == 2  # original untouched

    def test_equality(self, rel):
        rel.insert(("A1", "a", "x"))
        other = rel.copy()
        assert rel == other
        other.insert(("A2", "b", "y"))
        assert rel != other

    def test_unhashable(self, rel):
        with pytest.raises(TypeError):
            hash(rel)


class TestDisplay:
    def test_sorted_rows_deterministic(self, rel):
        rel.insert_many([("A2", "b", "y"), ("A1", "a", "x")])
        assert rel.sorted_rows()[0][0] == "A1"

    def test_pretty_contains_headers(self, rel):
        rel.insert(("A1", "a", "x"))
        out = rel.pretty()
        assert "id" in out and "name" in out and "'A1'" in out

    def test_pretty_truncates(self, rel):
        rel.insert_many([(f"A{i}", "n", "i") for i in range(30)])
        assert "more rows" in rel.pretty(limit=5)
