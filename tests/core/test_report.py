"""Tests for the explanation report module."""

import json

import pytest

from repro.core import AggregateQuery, UserQuestion, single_query
from repro.core.report import explain_question
from repro.datasets import natality
from repro.datasets import running_example as rex
from repro.engine.aggregates import agg_sum, count_distinct, count_star
from repro.engine.expressions import Col, Comparison, Const


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


class TestExplainQuestion:
    def test_report_fields(self):
        report = explain_question(
            rex.database(),
            sigmod_question(),
            ["Author.name", "Publication.year"],
            k=3,
        )
        assert report.direction == "high"
        assert report.original_value == 2
        assert report.additivity.all_exact_cube
        assert report.method == "cube"
        assert len(report.top_by_intervention) == 3
        assert len(report.top_by_aggravation) == 3
        assert report.best_intervention is not None

    def test_auto_method_picks_indexed_for_non_additive(self):
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        report = explain_question(
            rex.database(), question, ["Author.name"], k=2
        )
        assert report.method == "indexed"
        assert not report.additivity.all_exact_cube
        assert report.top_by_intervention

    def test_auto_method_is_the_explainers(self):
        # sum(year) over SIGMOD is not cube-exact, so the certificate
        # recommends indexed; the report must not second-guess it with
        # a rule of its own.
        question = UserQuestion.high(
            single_query(
                AggregateQuery(
                    "q1",
                    agg_sum("Publication.year", "q1"),
                    Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
                )
            )
        )
        report = explain_question(
            rex.database(), question, ["Author.name"], k=2
        )
        assert report.method == "indexed"
        assert report.top_by_intervention

    def test_explicit_method_respected(self):
        report = explain_question(
            rex.database(),
            sigmod_question(),
            ["Author.name"],
            method="exact",
            k=2,
        )
        assert report.method == "exact"

    def test_natality_report(self):
        db = natality.generate(rows=1500, seed=3)
        report = explain_question(
            db,
            natality.q_race_question(),
            ["Birth.marital", "Birth.tobacco"],
            k=3,
        )
        assert report.original_value > 5
        assert report.table_size > 3


class TestRendering:
    @pytest.fixture
    def report(self):
        return explain_question(
            rex.database(),
            sigmod_question(),
            ["Author.name", "Publication.year"],
            k=3,
        )

    def test_render_sections(self, report):
        text = report.render()
        assert "Question :" in text
        assert "INTERVENTION" in text
        assert "AGGRAVATION" in text
        assert "Minimal intervention" in text
        assert "fixpoint iterations" in text

    def test_to_dict(self, report):
        data = report.to_dict()
        assert data["direction"] == "high"
        assert data["intervention_additive"] is True
        assert len(data["top_by_intervention"]) == 3
        assert data["best_intervention"]["deleted_tuples"] >= 1

    def test_to_json_roundtrips(self, report):
        data = json.loads(report.to_json())
        assert data["method"] == "cube"

    def test_infinite_degrees_serializable(self):
        """Aggravation can be inf; JSON must not break."""
        db = natality.generate(rows=400, seed=3)
        report = explain_question(
            db,
            natality.q_marital_question(),
            ["Birth.age"],
            k=3,
        )
        json.loads(report.to_json())  # no exception
