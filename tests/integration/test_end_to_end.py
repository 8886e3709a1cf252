"""End-to-end integration tests: full pipelines on every workload.

These tie the whole stack together — generator → universal relation →
additivity analysis → Algorithm 1 → top-K — and cross-check the cube
fast path against the program-P ground truth at small scale.
"""

import pytest

from repro.core import Explainer, compute_intervention
from repro.datasets import dblp, geodblp, natality

from support.intervention import database_is_reduced, is_valid_intervention


class TestNatalityPipeline:
    @pytest.fixture(scope="class")
    def explainer(self):
        db = natality.generate(rows=5_000, seed=99)
        return Explainer(
            db, natality.q_race_question(), natality.default_attributes("race")
        )

    def test_additive(self, explainer):
        assert explainer.additivity_report().all_exact_cube

    def test_q_is_high(self, explainer):
        assert explainer.original_value() > 10

    def test_topk_all_strategies_consistent_degrees(self, explainer):
        a = explainer.top(5, strategy="minimal_self_join")
        b = explainer.top(5, strategy="minimal_append")
        assert [round(r.degree, 6) for r in a] == [
            round(r.degree, 6) for r in b
        ]

    def test_cube_degrees_match_exact_for_top(self, explainer):
        """Every cube-ranked top explanation's degree equals the
        ground-truth program-P degree."""
        top = explainer.top(3)
        for ranked in top:
            score = explainer.score(ranked.explanation)
            assert score.mu_interv == pytest.approx(ranked.degree)

    def test_interventions_of_top_are_valid(self, explainer):
        for ranked in explainer.top(3):
            result = compute_intervention(
                explainer.database, ranked.explanation
            )
            assert is_valid_intervention(
                explainer.database, ranked.explanation, result.delta
            )


class TestDblpPipeline:
    @pytest.fixture(scope="class")
    def explainer(self):
        db = dblp.generate(scale=0.4, seed=17)
        return Explainer(db, dblp.bump_question(), dblp.default_attributes())

    def test_not_additive(self, explainer):
        """The bump question's WHERE filters on Author.dom while
        counting distinct pubids; cross-domain co-authorship (8% in
        the generator) breaks the footnote-11 condition, so the
        certificate refuses the cube and recommends the indexed exact
        evaluator (see tests/core/test_additivity_boundary.py for the
        minimal witness)."""
        assert not explainer.additivity_report().all_exact_cube
        assert explainer.resolve_method("auto") == "indexed"

    def test_top_explanations_reduce_q(self, explainer):
        """Ground truth check on a join schema with a back-and-forth
        key.  The indexed evaluator (the certificate's recommendation
        for this non-additive question) runs program P per candidate,
        so its degrees match the per-explanation ground truth exactly
        — no footnote-11 slack tolerance needed."""
        q_d = explainer.original_value()
        for ranked in explainer.top(3, method="auto"):
            score = explainer.score(ranked.explanation)
            assert score.mu_interv == pytest.approx(ranked.degree, rel=1e-9)
            # dir=high: -Q(D - delta) is the degree; Q must go down.
            assert -score.mu_interv <= q_d + 1e-9

    def test_residuals_are_reduced(self, explainer):
        for ranked in explainer.top(2, method="auto"):
            result = compute_intervention(
                explainer.database, ranked.explanation
            )
            residual = explainer.database.subtract(result.delta)
            assert database_is_reduced(residual)


class TestGeoDblpPipeline:
    @pytest.fixture(scope="class")
    def explainer(self):
        db = geodblp.generate(scale=0.6, seed=23)
        return Explainer(db, geodblp.uk_question(), geodblp.default_attributes())

    def test_additive_through_eight_tables(self, explainer):
        assert explainer.additivity_report().all_exact_cube

    def test_cube_matches_exact_on_eight_table_join(self, explainer):
        top = explainer.top(3)
        for ranked in top:
            score = explainer.score(ranked.explanation)
            assert score.mu_interv == pytest.approx(ranked.degree, rel=1e-9)

    def test_uk_interventions_target_uk(self, explainer):
        """Top explanations should implicate UK entities."""
        texts = " ".join(str(r.explanation) for r in explainer.top(5))
        assert any(
            s in texts
            for s in ("Oxford", "Edinburgh", "Manchester", "Semmle")
        )


class TestCsvRoundTripPipeline:
    def test_dump_load_explain(self, tmp_path):
        """Persist a generated dataset to CSV, reload, and reproduce
        identical explanation degrees."""
        from repro.engine.csvio import dump_relation
        from support.fixtures import load_relation
        from repro.engine.database import Database

        db = natality.generate(rows=1_000, seed=5)
        path = tmp_path / "birth.csv"
        dump_relation(db.relation("Birth"), path)
        reloaded_rel = load_relation(db.schema.relation("Birth"), path)
        db2 = Database(db.schema)
        db2.relations["Birth"] = reloaded_rel
        assert db == db2

        attrs = ["Birth.marital", "Birth.tobacco"]
        m1 = Explainer(db, natality.q_race_question(), attrs).explanation_table("cube")
        m2 = Explainer(db2, natality.q_race_question(), attrs).explanation_table("cube")
        assert m1.table == m2.table


class TestFailureInjection:
    def test_corrupted_fk_detected(self):
        db = dblp.generate(scale=0.2, seed=1)
        db.relation("Authored").insert(("ghost:author", "P000001"))
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            db.check_integrity()

    def test_non_additive_query_blocked_on_cube_path(self):
        from repro.core import AggregateQuery, UserQuestion, single_query
        from repro.engine import count_star
        from repro.errors import NotAdditiveError

        db = dblp.generate(scale=0.2, seed=1)
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        explainer = Explainer(db, question, ["Author.inst"])
        with pytest.raises(NotAdditiveError):
            explainer.explanation_table("cube")

    def test_non_additive_query_works_via_exact(self):
        from repro.core import AggregateQuery, UserQuestion, single_query
        from repro.engine import count_star

        db = dblp.generate(scale=0.1, seed=1)
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        explainer = Explainer(db, question, ["Author.inst"])
        top = explainer.top(3, method="exact")
        assert top  # the slow path handles non-additive queries
