"""Tests for Database instances and Delta algebra."""

import pytest

from repro.datasets import running_example as rex
from repro.engine.database import Delta
from repro.errors import IntegrityError, SchemaError

from support.fixtures import example_29_database


@pytest.fixture
def db():
    return rex.database()


class TestDatabase:
    def test_construction_and_sizes(self, db):
        assert db.total_rows() == 12
        assert len(db.relation("Author")) == 3
        assert db["Publication"].name == "Publication"

    def test_unknown_relation(self, db):
        with pytest.raises(SchemaError):
            db.relation("Nope")

    def test_integrity_ok(self, db):
        db.check_integrity()  # no raise

    def test_integrity_detects_dangling(self, db):
        db.relation("Authored").insert(("A9", "P1"))
        with pytest.raises(IntegrityError, match="dangling"):
            db.check_integrity()

    def test_copy_independent(self, db):
        clone = db.copy()
        clone.relation("Author").delete(rex.R1)
        assert len(db.relation("Author")) == 3
        assert len(clone.relation("Author")) == 2

    def test_equality(self, db):
        assert db == db.copy()
        other = db.copy()
        other.relation("Author").delete(rex.R1)
        assert db != other

    def test_subtract(self, db):
        delta = Delta(db.schema, {"Authored": [rex.S1], "Publication": [rex.T1]})
        residual = db.subtract(delta)
        assert len(residual.relation("Authored")) == 5
        assert len(residual.relation("Publication")) == 2
        assert db.total_rows() == 12  # original untouched

    def test_repr(self, db):
        assert "Author=3" in repr(db)


class TestDerived:
    """One per-version memo holds U, the reducer, the fingerprint and
    the closure index; a write retires them together."""

    @staticmethod
    def build_all(db):
        from repro.engine.closure import ClosureIndex
        from repro.engine.reduction import DeltaReducer
        from repro.engine.universal import universal_table

        return (
            universal_table(db),
            DeltaReducer.for_database(db),
            ClosureIndex.for_database(db),
            db.content_fingerprint(),
        )

    def test_each_kind_is_built_once_per_version(self, db):
        first = self.build_all(db)
        again = self.build_all(db)
        assert all(a is b for a, b in zip(first, again))
        calls = []
        assert db.derived("probe", lambda: calls.append(1) or len(calls)) == 1
        assert db.derived("probe", lambda: calls.append(1) or len(calls)) == 1

    def test_one_write_retires_every_kind(self, db):
        import gc
        import weakref

        universal, reducer, index, fingerprint = self.build_all(db)
        refs = [weakref.ref(reducer), weakref.ref(index)]
        del reducer, index
        db.relation("Author").delete_many([rex.R1])
        assert db.content_fingerprint() != fingerprint
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert list(db._derived_cache[2]) == ["fingerprint"]
        rebuilt = self.build_all(db)
        assert rebuilt[0] is not universal
        assert rebuilt[2].tuple_count == db.total_rows()

    def test_a_fingerprint_read_after_a_swap_releases_the_old_relations(self, db):
        import gc
        import weakref

        self.build_all(db)
        old = weakref.ref(db.relation("Publication"))
        db.relations["Publication"] = db.relation("Publication").without([rex.T2])
        gc.collect()
        assert old() is not None  # pinned by the stale version's entries
        db.content_fingerprint()
        gc.collect()
        assert old() is None

    def test_a_write_during_a_build_builds_again(self, db):
        builds = []

        def build():
            builds.append(len(db.relation("Author")))
            if len(builds) == 1:
                db.relation("Author").delete_many([rex.R1])
            return len(builds)

        assert db.derived("probe", build) == 1
        assert db.derived("probe", build) == 2
        assert db.derived("probe", build) == 2
        assert builds == [3, 2]


class TestDelta:
    def test_empty(self, db):
        delta = Delta.empty(db.schema)
        assert delta.is_empty() and delta.size() == 0

    def test_all_of(self, db):
        delta = Delta.all_of(db)
        assert delta.size() == db.total_rows()
        assert db.subtract(delta).total_rows() == 0

    def test_unknown_relation_rejected(self, db):
        with pytest.raises(SchemaError):
            Delta(db.schema, {"Nope": []})
        with pytest.raises(SchemaError):
            Delta.empty(db.schema).rows_for("Nope")

    def test_union(self, db):
        a = Delta(db.schema, {"Author": [rex.R1]})
        b = Delta(db.schema, {"Author": [rex.R2], "Authored": [rex.S1]})
        u = a | b
        assert u.size() == 3
        assert rex.R1 in u["Author"] and rex.R2 in u["Author"]

    def test_subset_order(self, db):
        small = Delta(db.schema, {"Author": [rex.R1]})
        big = Delta(db.schema, {"Author": [rex.R1, rex.R2]})
        assert small <= big
        assert not big <= small
        assert small <= small

    def test_equality(self, db):
        a = Delta(db.schema, {"Author": [rex.R1]})
        b = Delta(db.schema, {"Author": [rex.R1]})
        assert a == b
        assert a != Delta.empty(db.schema)

    def test_incomparable_schemas(self, db):
        other = example_29_database()
        with pytest.raises(SchemaError):
            Delta.empty(db.schema).issubset(Delta.empty(other.schema))

    def test_describe_and_repr(self, db):
        delta = Delta(db.schema, {"Author": [rex.R1]})
        assert "Author" in delta.describe()
        assert "Author" in repr(delta)
        assert "empty" in repr(Delta.empty(db.schema))
