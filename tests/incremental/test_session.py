"""Tests for the IncrementalSession lifecycle: patch and fallback."""

from collections import Counter

import pytest

from repro.core.explainer import Explainer
from repro.core.numquery import AggregateQuery, single_query
from repro.core.question import UserQuestion
from repro.datasets import dblp, natality
from repro.datasets import running_example as rex
from repro.engine.aggregates import AggregateSpec
from repro.engine.database import Database
from repro.engine.expressions import Col, Comparison, Const
from repro.engine.schema import single_table_schema
from repro.engine.types import NULL
from repro.errors import IncrementalError, QueryError
from repro.incremental import DeltaCubeBuilder, IncrementalSession
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


class TestFailedRefresh:
    def test_failed_refresh_does_not_double_fold(self):
        """A refresh that raises folds nothing, so the next one folds
        the logged batch exactly once."""
        db = natality.generate(rows=2000, seed=7)
        question = natality.q_race_question()
        attributes = tuple(natality.default_attributes("race"))
        birth = db.relation("Birth")
        names = birth.schema.attribute_names
        ap, race = names.index("ap"), names.index("race")
        keys = [birth.schema.index_of(a.split(".", 1)[1]) for a in attributes]
        q1_rows = [
            r for r in birth.row_list() if r[ap] == "good" and r[race] == "Asian"
        ]
        sizes = Counter(tuple(r[i] for i in keys) for r in q1_rows)
        victim = next(r for r in q1_rows if sizes[tuple(r[i] for i in keys)] >= 3)
        null_age = list(victim)
        null_age[0] = max(r[0] for r in birth.row_list()) + 1
        null_age[names.index("age")] = NULL
        null_age = tuple(null_age)
        with IncrementalSession(db, question, attributes, method="cube") as s:
            s.table()
            birth.delete_many([victim])
            birth.insert_many([null_age])
            with pytest.raises(QueryError, match="contains NULL"):
                s.refresh()
            birth.delete_many([null_age])
            assert s.refresh().strategy == "patched"
            assert (
                s.table().content_fingerprint()
                == _cold_table(db, question, attributes).content_fingerprint()
            )


class TestFailedConstruction:
    def test_failed_initial_build_detaches_the_log(self):
        """A session whose first build raises never reaches its
        caller, so the constructor itself must unsubscribe its
        mutation log from every relation."""
        db = Database(
            single_table_schema("T", ["id", "g", "h"], ["id"]),
            {"T": [(1, "a", "x"), (2, "a", NULL), (3, "b", "y")]},
        )
        question = UserQuestion.high(
            single_query(
                AggregateQuery(
                    "q",
                    AggregateSpec("count_star", None, "q"),
                    Comparison("=", Col("T.g"), Const("a")),
                )
            )
        )
        with pytest.raises(QueryError, match="no column 'T.nope'"):
            IncrementalSession(db, question, ("T.nope",))
        assert db.relation("T")._subscribers == []


def _single_table(rows, kind="count", argument="T.x"):
    db = Database(
        single_table_schema("T", ["id", "g", "x"], ["id"]), {"T": rows}
    )
    question = UserQuestion.high(
        single_query(AggregateQuery("q", AggregateSpec(kind, argument, "q")))
    )
    return db, question, ("T.g",)


class TestFallbackLabels:
    """Every surviving ``repro_incremental_fallbacks_total`` label is
    reachable, and each fallback serves the cold table."""

    @staticmethod
    def _refresh_falls_back(session, db, question, attributes, reason):
        with pytest.warns(RuntimeWarning, match=reason):
            stats = session.refresh()
        assert (stats.strategy, stats.reason) == ("rebuilt", reason)
        assert (
            session.table().content_fingerprint()
            == _cold_table(
                db, question, attributes, method=session.method
            ).content_fingerprint()
        )

    def test_method(self, workload):
        db, question, attributes = workload
        with IncrementalSession(db, question, attributes, method="indexed") as s:
            assert not s.patchable
            db.relation("Birth").delete_many(_sample(db, "Birth", 3))
            self._refresh_falls_back(s, db, question, attributes, "method")

    def test_verdict_changed(self):
        """Footnote 11: count(distinct pubid) WHERE Author.dom = 'com'
        is exact-cube while pubid determines Author.dom.  A new edu
        co-author of P1 breaks that, so the refresh re-certifies and
        rebuilds."""
        db = Database(
            rex.schema(),
            {
                "Author": [rex.R2, rex.R3],
                "Authored": [rex.S2, rex.S4, rex.S5, rex.S6],
                "Publication": [rex.T1, rex.T2, rex.T3],
            },
        )
        question = UserQuestion.high(
            single_query(
                AggregateQuery(
                    "q",
                    AggregateSpec("count_distinct", "Publication.pubid", "q"),
                    Comparison("=", Col("Author.dom"), Const("com")),
                )
            )
        )
        attributes = ("Author.name", "Publication.year")
        with IncrementalSession(db, question, attributes, method="auto") as s:
            assert s.patchable
            db.relation("Author").insert_many([rex.R1])
            db.relation("Authored").insert_many([rex.S1])
            self._refresh_falls_back(
                s, db, question, attributes, "verdict-changed"
            )

    def test_float_sum(self):
        """A float SUM is no fallback any more: its total is exact, so
        it retracts, and the patched table equals the cold one."""
        db, question, attributes = _single_table(
            [(1, "a", 0.1), (2, "a", 0.2), (3, "a", 0.3), (4, "b", NULL)],
            kind="sum",
        )
        with IncrementalSession(db, question, attributes, method="cube") as s:
            assert s.patchable
            db.relation("T").delete_many([(1, "a", 0.1)])
            db.relation("T").insert_many([(5, "b", 1e-17), (6, "a", 0.7)])
            assert s.refresh().strategy == "patched"
            assert (
                s.table().content_fingerprint()
                == _cold_table(db, question, attributes).content_fingerprint()
            )

    @pytest.mark.parametrize(
        "phantoms",
        [[(9, "c", 3)], [(8, "a", 1), (9, "a", 2)]],
        ids=["unknown-group", "negative-count"],
    )
    def test_conservation(self, phantoms):
        """A phantom retraction: rows the states never held."""
        db, question, attributes = _single_table(
            [(1, "a", 1), (2, "b", NULL)]
        )
        builder = DeltaCubeBuilder(db, question, attributes)
        with pytest.raises(IncrementalError) as raised:
            builder.apply({"T": (frozenset(), frozenset(phantoms))})
        assert raised.value.reason == "conservation"
