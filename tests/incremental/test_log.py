"""Tests for the mutation log: capture, delta algebra, rebasing."""

import pytest

from repro.datasets import running_example as rex
from repro.engine.database import Database
from repro.incremental import MutationLog


@pytest.fixture
def db():
    return rex.database()


NEW_AUTHOR = ("A99", "New Author", "X.edu", "databases")


def _some_row(db, name):
    return db.relation(name).row_list()[0]


class TestCapture:
    def test_insert_recorded(self, db):
        with MutationLog(db) as log:
            db.relation("Author").insert(NEW_AUTHOR)
            assert len(log) == 1
            batch = log.batches[0]
            assert batch.relation == "Author"
            assert batch.inserted == (NEW_AUTHOR,)
            assert batch.deleted == ()

    def test_noop_mutations_invisible(self, db):
        existing = _some_row(db, "Author")
        with MutationLog(db) as log:
            db.relation("Author").insert(existing)  # already present
            db.relation("Author").delete(NEW_AUTHOR)  # absent
            assert log.is_empty

    def test_detach_stops_recording(self, db):
        log = MutationLog(db)
        log.detach()
        db.relation("Author").insert(NEW_AUTHOR)
        assert log.is_empty

    def test_row_totals(self, db):
        with MutationLog(db) as log:
            db.relation("Author").insert(NEW_AUTHOR)
            db.relation("Author").delete(NEW_AUTHOR)
            assert log.rows_inserted() == 1
            assert log.rows_deleted() == 1


class TestNetDelta:
    def test_insert_then_delete_cancels(self, db):
        with MutationLog(db) as log:
            db.relation("Author").insert(NEW_AUTHOR)
            db.relation("Author").delete(NEW_AUTHOR)
            assert log.net_delta() == {}

    def test_delete_then_reinsert_cancels(self, db):
        victim = _some_row(db, "Author")
        with MutationLog(db) as log:
            db.relation("Author").delete(victim)
            db.relation("Author").insert(victim)
            assert log.net_delta() == {}

    def test_disjoint_sets(self, db):
        victim = _some_row(db, "Author")
        with MutationLog(db) as log:
            db.relation("Author").delete(victim)
            db.relation("Author").insert(NEW_AUTHOR)
            net = log.net_delta()
            inserted, deleted = net["Author"]
            assert inserted == frozenset({NEW_AUTHOR})
            assert deleted == frozenset({victim})


def _fresh_fingerprint(db):
    """The fingerprint of a database rebuilt from *db*'s current rows."""
    rows = {name: rel.rows() for name, rel in db.relations.items()}
    return Database(db.schema, rows).content_fingerprint()


class TestCheckpoint:
    def test_checkpoint_clears_and_rebases(self, db):
        with MutationLog(db) as log:
            old_base = log.base_fingerprint
            db.relation("Author").insert(NEW_AUTHOR)
            new_base = log.checkpoint()
            assert log.is_empty
            assert new_base != old_base
            assert log.base_fingerprint == new_base

    def test_incremental_fingerprint_matches_full_recompute(self, db):
        """The digest-maintained rebase equals a from-scratch hash."""
        with MutationLog(db) as log:
            victim = _some_row(db, "Authored")
            db.relation("Author").insert(NEW_AUTHOR)
            db.relation("Authored").delete(victim)
            assert log.checkpoint() == _fresh_fingerprint(db)

    def test_successive_checkpoints_match_fresh_database(self, db):
        with MutationLog(db) as log:
            db.relation("Author").insert(NEW_AUTHOR)
            first = log.checkpoint()
            assert first == db.content_fingerprint() == _fresh_fingerprint(db)
            db.relation("Author").delete(NEW_AUTHOR)
            db.relation("Authored").clear()
            second = log.checkpoint()
            assert second != first
            assert second == log.base_fingerprint == _fresh_fingerprint(db)

    def test_fingerprint_survives_partial_insert_many(self, db):
        """Digests stay consistent when insert_many fails mid-batch."""
        from repro.errors import IntegrityError

        existing = _some_row(db, "Author")
        conflicting = (existing[0], "other name", "Y.edu", "os")
        with MutationLog(db) as log:
            with pytest.raises(IntegrityError):
                db.relation("Author").insert_many([NEW_AUTHOR, conflicting])
            assert log.checkpoint() == _fresh_fingerprint(db)
