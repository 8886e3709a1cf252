"""Unit tests for the FK cascade closure index (engine/closure.py)."""

import pytest

from repro.core.intervention import make_strategy
from repro.datasets import chains
from repro.datasets import running_example as rex
from repro.engine.closure import (
    ClosureIndex,
    StaleClosureIndexError,
    _compress,
)
from repro.engine.database import Delta
from repro.errors import ReproError


def first_row(db, relation):
    return db.relation(relation).sorted_rows()[0]


class TestEncoding:
    def test_compress_merges_adjacent_ids(self):
        assert _compress([3, 1, 2, 7, 9, 8]) == ((1, 3), (7, 9))
        assert _compress([]) == ()
        assert _compress([5]) == ((5, 5),)

    def test_runs_are_sorted_disjoint_inclusive(self):
        db = rex.database()
        index = ClosureIndex.for_database(db)
        for name in db.schema.relation_names:
            for row in db.relation(name).sorted_rows():
                runs = index.closure_runs(name, row)
                flat = [x for run in runs for x in run]
                assert flat == sorted(flat)
                for (a, b), (c, d) in zip(runs, runs[1:]):
                    assert b < c - 0  # disjoint and ordered
                assert all(a <= b for a, b in runs)

    def test_chain_head_closure_covers_the_whole_chain(self):
        # Example 3.7: deleting the chain head zig-zags through all of
        # D, so its closure is the full id space — one interval run.
        db, _ = chains.example_37(3)
        index = ClosureIndex.for_database(db)
        sizes = [
            sum(stop - start + 1 for start, stop in index.closure_runs(n, r))
            for n in db.schema.relation_names
            for r in db.relation(n).sorted_rows()
        ]
        assert max(sizes) == db.total_rows()

    def test_tuple_count(self):
        db = rex.database()
        assert ClosureIndex.for_database(db).tuple_count == db.total_rows()

    def test_unknown_tuple_raises(self):
        db = rex.database()
        index = ClosureIndex.for_database(db)
        with pytest.raises(ReproError):
            index.closure_runs("Author", ("nope", "x", "y", "z"))


class TestSubscription:
    def test_a_dropped_index_stops_listening_at_the_next_write(self):
        import gc

        db = rex.database()
        author = db.relation("Author")
        ClosureIndex(db)
        gc.collect()
        author.delete_many([first_row(db, "Author")])
        assert author._subscribers == []


class TestProbes:
    def test_closure_rows_match_fixpoint_single_seed(self):
        db = rex.database()
        index = ClosureIndex.for_database(db)
        fixpoint = make_strategy(db, strategy="fixpoint")
        for name in db.schema.relation_names:
            for row in db.relation(name).sorted_rows():
                seeds = Delta(db.schema, {name: {row}})
                expected = fixpoint.compute(None, seeds=seeds).delta
                got = index.delta_from_seeds(seeds).delta
                assert got == expected

    def test_seeds_outside_database_kept_verbatim(self):
        db = rex.database()
        index = ClosureIndex.for_database(db)
        ghost = ("A99", "ZZ", "X.edu", "edu")
        seeds = Delta(db.schema, {"Author": {ghost}})
        result = index.delta_from_seeds(seeds)
        assert ghost in result.delta.rows_for("Author")

    def test_rounds_bounded_by_fixpoint_iterations(self):
        for p in (1, 2, 3, 5):
            db, phi = chains.example_37(p)
            fix = make_strategy(db, strategy="fixpoint").compute(phi)
            clo = make_strategy(db, strategy="closure").compute(phi)
            assert clo.delta == fix.delta
            assert clo.iterations <= fix.iterations
            assert clo.iterations == 1  # the whole zig-zag is one probe


class TestCaching:
    def test_for_database_is_memoized(self):
        db = rex.database()
        assert ClosureIndex.for_database(db) is ClosureIndex.for_database(db)

    def test_mutation_invalidates_eagerly(self):
        db = rex.database()
        index = ClosureIndex.for_database(db)
        db.relation("Author").delete_many([first_row(db, "Author")])
        assert index.stale
        with pytest.raises(StaleClosureIndexError):
            index.closure_runs("Publication", first_row(db, "Publication"))

    def test_rebuild_after_mutation(self):
        db = rex.database()
        old = ClosureIndex.for_database(db)
        victim = first_row(db, "Authored")
        db.relation("Authored").delete_many([victim])
        new = ClosureIndex.for_database(db)
        assert new is not old
        assert not new.stale
        assert new.tuple_count == db.total_rows()

    def test_invalidate_is_idempotent(self):
        db = rex.database()
        index = ClosureIndex.for_database(db)
        index.invalidate()
        index.invalidate()
        assert index.stale
        # A fresh index is rebuilt on the next request.
        assert ClosureIndex.for_database(db) is not index
