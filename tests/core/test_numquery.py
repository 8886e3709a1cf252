"""Tests for numerical queries Q = E(q1, …, qm)."""

import math

import pytest

from repro.core.numquery import (
    AggregateQuery,
    NumericalQuery,
    double_ratio_query,
    ratio_query,
    regression_slope_query,
    single_query,
)
from repro.datasets import running_example as rex
from repro.engine.aggregates import count_distinct, count_star
from repro.engine.expressions import Col, Comparison, Const, conj
from repro.engine.universal import universal_table
from repro.errors import QueryError


@pytest.fixture
def universal():
    return universal_table(rex.database())


def count_query(name, **equals):
    atoms = [
        Comparison("=", Col(col), Const(v)) for col, v in equals.items()
    ]
    where = conj(*atoms) if atoms else None
    return AggregateQuery(name, count_star(name), where)


class TestAggregateQuery:
    def test_unfiltered_count(self, universal):
        q = AggregateQuery("q", count_star("q"))
        assert q.evaluate(universal) == 6

    def test_filtered_count(self, universal):
        q = count_query("q", **{"Author.dom": "com"})
        assert q.evaluate(universal) == 4

    def test_count_distinct(self, universal):
        q = AggregateQuery(
            "q",
            count_distinct("Publication.pubid", "q"),
            Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
        )
        assert q.evaluate(universal) == 2  # P1, P3

    def test_filtered_table(self, universal):
        q = count_query("q", **{"Author.dom": "edu"})
        assert len(q.filtered(universal)) == 2

    def test_name_must_be_identifier(self):
        with pytest.raises(QueryError):
            AggregateQuery("not a name", count_star("q"))

    def test_str(self, universal):
        q = count_query("q1", **{"Author.dom": "com"})
        assert "q1" in str(q) and "count(*)" in str(q)


class TestNumericalQuery:
    def test_single(self, universal):
        q = single_query(count_query("q", **{"Author.dom": "com"}))
        assert q.evaluate_universal(universal) == 4

    def test_ratio(self, universal):
        q = ratio_query(
            count_query("q1", **{"Author.dom": "com"}),
            count_query("q2", **{"Author.dom": "edu"}),
        )
        assert q.evaluate_universal(universal) == 2.0

    def test_ratio_zero_denominator_infinite(self, universal):
        q = ratio_query(
            count_query("q1", **{"Author.dom": "com"}),
            count_query("q2", **{"Author.dom": "nope"}),
        )
        assert q.evaluate_universal(universal) == math.inf

    def test_ratio_epsilon_smoothing(self, universal):
        q = ratio_query(
            count_query("q1", **{"Author.dom": "com"}),
            count_query("q2", **{"Author.dom": "nope"}),
            epsilon=0.0001,
        )
        value = q.evaluate_universal(universal)
        assert value == pytest.approx(4.0001 / 0.0001)

    def test_double_ratio(self, universal):
        q = double_ratio_query(
            count_query("q1", **{"Author.dom": "com"}),
            count_query("q2", **{"Publication.venue": "SIGMOD"}),
            count_query("q3", **{"Author.dom": "edu"}),
            count_query("q4", **{"Publication.venue": "VLDB"}),
        )
        # (4/4) / (2/2) = 1
        assert q.evaluate_universal(universal) == 1.0

    def test_aggregate_values(self, universal):
        q = ratio_query(
            count_query("q1", **{"Author.dom": "com"}),
            count_query("q2", **{"Author.dom": "edu"}),
        )
        assert q.aggregate_values(universal) == {"q1": 4, "q2": 2}

    def test_evaluate_environment(self):
        q = ratio_query(count_query("q1"), count_query("q2"))
        assert q.evaluate_environment({"q1": 10, "q2": 4}) == 2.5

    def test_duplicate_names_rejected(self):
        with pytest.raises(QueryError):
            NumericalQuery(
                (count_query("q"), count_query("q")), Col("q")
            )

    def test_unknown_aggregate_in_expression_rejected(self):
        with pytest.raises(QueryError, match="unknown aggregates"):
            NumericalQuery((count_query("q1"),), Col("zzz"))

    def test_names(self):
        q = ratio_query(count_query("a"), count_query("b"))
        assert q.names == ("a", "b")

    def test_str(self):
        q = ratio_query(count_query("a"), count_query("b"))
        assert "a" in str(q) and "b" in str(q)


class TestRegressionSlope:
    def test_increasing_series(self):
        qs = [count_query(f"q{i}") for i in range(4)]
        query = regression_slope_query(qs)
        env = {f"q{i}": 10 + 3 * i for i in range(4)}
        assert query.evaluate_environment(env) == pytest.approx(3.0)

    def test_decreasing_series(self):
        qs = [count_query(f"q{i}") for i in range(3)]
        query = regression_slope_query(qs)
        env = {f"q{i}": 10 - 2 * i for i in range(3)}
        assert query.evaluate_environment(env) == pytest.approx(-2.0)

    def test_flat_series(self):
        qs = [count_query(f"q{i}") for i in range(5)]
        query = regression_slope_query(qs)
        env = {f"q{i}": 7 for i in range(5)}
        assert query.evaluate_environment(env) == pytest.approx(0.0)

    def test_matches_numpy_polyfit(self):
        import numpy as np

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        qs = [count_query(f"q{i}") for i in range(len(values))]
        query = regression_slope_query(qs)
        env = {f"q{i}": v for i, v in enumerate(values)}
        slope = np.polyfit(range(len(values)), values, 1)[0]
        assert query.evaluate_environment(env) == pytest.approx(slope)

    def test_requires_two_points(self):
        with pytest.raises(QueryError):
            regression_slope_query([count_query("q0")])
