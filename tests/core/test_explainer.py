"""Tests for the Explainer facade."""

import pytest

from repro.core.explainer import Explainer, render_ranking
from repro.core.numquery import AggregateQuery, single_query
from repro.core.predicates import parse_explanation
from repro.core.question import UserQuestion
from repro.datasets import dblp, natality
from repro.datasets import running_example as rex
from repro.engine.aggregates import count_distinct
from repro.engine.expressions import Col, Comparison, Const
from repro.errors import ExplanationError, NotAdditiveError, QueryError


def sigmod_question():
    return UserQuestion.high(
        single_query(
            AggregateQuery(
                "q",
                count_distinct("Publication.pubid", "q"),
                Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
            )
        )
    )


ATTRS = ["Author.name", "Publication.year"]


class TestConstruction:
    def test_requires_attributes(self):
        with pytest.raises(ExplanationError):
            Explainer(rex.database(), sigmod_question(), [])

    def test_unknown_attribute_fails_fast(self):
        with pytest.raises(QueryError):
            Explainer(rex.database(), sigmod_question(), ["Author.zzz"])

    def test_original_value(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        assert ex.original_value() == 2

    def test_additivity_report(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        assert ex.additivity_report().all_exact_cube


class TestMethods:
    def test_unknown_method(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        with pytest.raises(ExplanationError):
            ex.explanation_table("magic")

    def test_table_cached(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        assert ex.explanation_table("cube") is ex.explanation_table("cube")

    def test_kwargs_bypass_cache(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        a = ex.explanation_table("cube", check_additivity=False)
        b = ex.explanation_table("cube", check_additivity=False)
        assert a is not b

    def test_misspelt_keyword_rejected(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        with pytest.raises(TypeError):
            ex.explanation_table("cube", check_aditivity=False)

    def test_exact_and_naive_differ_only_where_expected(self):
        """On the additive count(distinct pubid) query, all three
        methods produce identical intervention degrees for shared
        explanations."""
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        tables = {m: ex.explanation_table(m) for m in ("cube", "naive", "exact")}

        def to_map(m):
            from repro.core.cube_algorithm import MU_INTERV

            return {
                str(m.explanation_of(row)): row[m.table.position(MU_INTERV)]
                for row in m.table.rows()
            }

        maps = {name: to_map(m) for name, m in tables.items()}
        shared = set(maps["cube"]) & set(maps["naive"]) & set(maps["exact"])
        assert len(shared) >= 4
        for key in shared:
            assert maps["cube"][key] == pytest.approx(maps["exact"][key])
            assert maps["naive"][key] == pytest.approx(maps["exact"][key])

    def test_naive_checks_additivity_like_the_cube(self):
        """``naive`` derives mu_interv through the additive identity, so
        on the non-additive DBLP bump question (footnote 11) it must
        refuse exactly as ``cube`` does — not return wrong degrees."""
        ex = Explainer(
            dblp.generate(scale=0.1, seed=2014),
            dblp.bump_question(),
            dblp.default_attributes(),
        )
        for method in ("cube", "naive"):
            with pytest.raises(NotAdditiveError):
                ex.explanation_table(method)
        unchecked = ex.explanation_table("naive", check_additivity=False)
        assert len(unchecked) > 1


class TestAdditivity:
    def test_checked_once_for_report_and_certificate(self, monkeypatch):
        import repro.analysis.additivity as additivity
        import repro.analysis.analyzer as analyzer

        calls = []
        certify = additivity.certify_additivity

        def counting(*args, **kwargs):
            calls.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(additivity, "certify_additivity", counting)
        monkeypatch.setattr(analyzer, "certify_additivity", counting)
        explainer = Explainer(rex.database(), sigmod_question(), ATTRS)
        report = explainer.additivity_report()
        assert explainer.certificate().additivity is report
        assert len(calls) == 1


class TestTop:
    def test_top_by_intervention(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        top = ex.top(3)
        assert len(top) == 3
        degrees = [r.degree for r in top]
        assert degrees == sorted(degrees, reverse=True)

    def test_top_by_aggravation(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        top = ex.top(3, by="aggravation")
        assert len(top) == 3

    def test_invalid_by(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        with pytest.raises(ExplanationError):
            ex.top(3, by="magic")

    def test_strategies_consistent(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        self_join = ex.top(5, strategy="minimal_self_join")
        append = ex.top(5, strategy="minimal_append")
        assert [r.degree for r in self_join] == [r.degree for r in append]

    def test_rr_is_top_intervention_explanation(self):
        """Removing RR kills both SIGMOD papers — the best possible
        intervention for (count SIGMOD, high)."""
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        top = ex.top(1)
        assert "RR" in str(top[0].explanation) or "2001" in str(top[0].explanation)
        assert top[0].degree == 0  # -Q(D - delta) = -0

    def test_score_single_explanation(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        score = ex.score(parse_explanation("Author.name = 'RR'"))
        assert score.mu_interv == 0


class TestSupportThreshold:
    def test_threshold_respected_in_naive(self):
        db = natality.generate(rows=300, seed=2)
        ex = Explainer(
            db,
            natality.q_race_question(),
            ["Birth.marital"],
            support_threshold=5,
        )
        m = ex.explanation_table("naive")
        v_cols = [c for c in m.table.columns if c.startswith("v_")]
        positions = m.table.positions(v_cols)
        attr_pos = m.table.positions(m.attributes)
        from repro.engine.types import is_dummy

        for row in m.table.rows():
            if all(is_dummy(row[i]) for i in attr_pos):
                continue  # trivial row is exempt
            assert any(row[i] >= 5 for i in positions)


class TestRendering:
    def test_render_ranking(self):
        ex = Explainer(rex.database(), sigmod_question(), ATTRS)
        text = render_ranking(ex.top(3))
        assert "rank" in text
        assert text.count("\n") == 3
