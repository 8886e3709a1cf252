"""Tests for the IncrementalSession lifecycle: patch and fallback."""

import pytest

from repro.core.explainer import Explainer
from repro.datasets import dblp, natality
from repro.engine.database import Database
from repro.incremental import IncrementalSession
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def workload():
    """A small additive natality workload (count aggregates, cube)."""
    db = natality.generate(rows=400, seed=7)
    return (
        db,
        natality.q_race_question(),
        tuple(natality.default_attributes("race")),
    )


def _cold_table(db, question, attributes, method="cube"):
    return Explainer(db, question, attributes).explanation_table(method)


def _sample(db, relation, n, *, offset=0):
    return db.relation(relation).row_list()[offset : offset + n]


class TestPatchedPath:
    def test_initial_table_matches_cold(self, workload):
        db, question, attributes = workload
        with IncrementalSession(db, question, attributes, method="cube") as s:
            assert s.patchable
            assert s.last_stats.strategy == "initial"
            assert (
                s.table().content_fingerprint()
                == _cold_table(db, question, attributes).content_fingerprint()
            )

    def test_patched_table_identical_to_cold_rebuild(self, workload):
        db, question, attributes = workload
        with IncrementalSession(db, question, attributes, method="cube") as s:
            s.table()
            victims = _sample(db, "Birth", 25)
            db.relation("Birth").delete_many(victims)
            stats = s.refresh()
            assert stats.strategy == "patched"
            assert (
                s.table().content_fingerprint()
                == _cold_table(db, question, attributes).content_fingerprint()
            )

    def test_chained_deltas_stay_identical(self, workload):
        db, question, attributes = workload
        with IncrementalSession(db, question, attributes, method="cube") as s:
            s.table()
            for offset in (0, 40, 80):
                victims = _sample(db, "Birth", 10, offset=offset)
                db.relation("Birth").delete_many(victims)
                assert s.refresh().strategy == "patched"
                db.relation("Birth").insert_many(victims)
                assert s.refresh().strategy == "patched"
            assert (
                s.table().content_fingerprint()
                == _cold_table(db, question, attributes).content_fingerprint()
            )

    def test_noop_refresh(self, workload):
        db, question, attributes = workload
        with IncrementalSession(db, question, attributes, method="cube") as s:
            s.table()
            stats = s.refresh()
            assert stats.strategy == "noop"
            assert stats.fingerprint == stats.base_fingerprint

    def test_refresh_checkpoint_matches_database_fingerprint(self, workload):
        db, question, attributes = workload
        with IncrementalSession(db, question, attributes, method="cube") as s:
            s.table()
            db.relation("Birth").delete_many(_sample(db, "Birth", 5))
            stats = s.refresh()
            fresh = Database(
                db.schema, {n: r.rows() for n, r in db.relations.items()}
            )
            assert stats.fingerprint == fresh.content_fingerprint()

    def test_patch_counter_incremented(self, workload):
        db, question, attributes = workload
        metrics = MetricsRegistry()
        with IncrementalSession(
            db, question, attributes, method="cube", metrics=metrics
        ) as s:
            s.table()
            db.relation("Birth").delete_many(_sample(db, "Birth", 5))
            s.refresh()
            assert s.patches == 1
            assert (
                metrics.snapshot()["repro_incremental_patches_total"] == 1.0
            )


class TestFallback:
    def test_non_additive_plan_falls_back_with_correct_table(self):
        """A needs-iterative plan rebuilds (never a wrong table)."""
        db = dblp.generate(scale=0.1, seed=2014)
        question = dblp.bump_question()
        attributes = tuple(dblp.default_attributes())
        metrics = MetricsRegistry()
        with IncrementalSession(
            db, question, attributes, method="auto", metrics=metrics
        ) as s:
            assert not s.patchable
            victim = db.relation("Authored").row_list()[0]
            db.relation("Authored").delete_many([victim])
            with pytest.warns(RuntimeWarning, match="needs-iterative"):
                stats = s.refresh()
            assert stats.strategy == "rebuilt"
            assert stats.reason == "needs-iterative"
            assert s.fallbacks == 1
            assert (
                metrics.snapshot()[
                    'repro_incremental_fallbacks_total{reason="needs-iterative"}'
                ]
                == 1.0
            )
            assert (
                s.table().content_fingerprint()
                == _cold_table(
                    db, question, attributes, method="auto"
                ).content_fingerprint()
            )

    def test_fallback_rearms_patching(self, workload):
        """After a rebuild the session patches again from fresh state."""
        db, question, attributes = workload
        with IncrementalSession(db, question, attributes, method="cube") as s:
            s.table()
            db.relation("Birth").delete_many(_sample(db, "Birth", 5))
            # Force one fallback through the verify path by injecting a
            # static reason, then clear it.
            s._builder, saved = None, s._builder
            with pytest.warns(RuntimeWarning):
                assert s.refresh().strategy == "rebuilt"
            s._builder = saved
            s._builder.reset()
            db.relation("Birth").delete_many(_sample(db, "Birth", 5, offset=20))
            assert s.refresh().strategy == "patched"
            assert (
                s.table().content_fingerprint()
                == _cold_table(db, question, attributes).content_fingerprint()
            )


class TestExplainerApplyDelta:
    def test_apply_delta_matches_cold(self, workload):
        db, question, attributes = workload
        explainer = Explainer(db, question, attributes)
        victims = _sample(db, "Birth", 25)
        stats = explainer.apply_delta({"Birth": {"delete": victims}})
        assert stats.strategy == "patched"
        assert (
            explainer.explanation_table("cube").content_fingerprint()
            == _cold_table(db, question, attributes).content_fingerprint()
        )
