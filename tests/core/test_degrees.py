"""Tests for μ_aggr and μ_interv on the running example."""

from repro.core.degrees import DegreeEvaluator
from repro.core.numquery import AggregateQuery, single_query
from repro.core.predicates import parse_explanation
from repro.core.question import UserQuestion
from repro.datasets import running_example as rex
from repro.engine.aggregates import count_distinct
from repro.engine.expressions import Col, Comparison, Const


def sigmod_query():
    """count(distinct pubid) where venue = SIGMOD."""
    return single_query(
        AggregateQuery(
            "q",
            count_distinct("Publication.pubid", "q"),
            Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
        )
    )


class TestAggravation:
    def test_high_direction_positive_sign(self):
        db = rex.database()
        question = UserQuestion.high(sigmod_query())
        ev = DegreeEvaluator(db, question)
        phi = parse_explanation("Author.dom = 'com'")
        # Both SIGMOD papers have a com author: Q(D_phi) = 2.
        assert ev.aggravation(phi) == 2

    def test_low_direction_flips_sign(self):
        db = rex.database()
        question = UserQuestion.low(sigmod_query())
        ev = DegreeEvaluator(db, question)
        phi = parse_explanation("Author.dom = 'com'")
        assert ev.aggravation(phi) == -2

    def test_aggravation_of_nonmatching_phi(self):
        db = rex.database()
        question = UserQuestion.high(sigmod_query())
        ev = DegreeEvaluator(db, question)
        phi = parse_explanation("Author.name = 'NOBODY'")
        assert ev.aggravation(phi) == 0

    def test_aggravation_values(self):
        db = rex.database()
        question = UserQuestion.high(sigmod_query())
        ev = DegreeEvaluator(db, question)
        phi = parse_explanation("Publication.year = 2001")
        assert ev.aggravation_values(phi) == {"q": 2}


class TestIntervention:
    def test_high_direction_negative_sign(self):
        db = rex.database()
        question = UserQuestion.high(sigmod_query())
        ev = DegreeEvaluator(db, question)
        phi = parse_explanation("Author.name = 'RR'")
        # Removing RR kills P1 and P3 (back-and-forth): Q(D-Δ)=0.
        assert ev.intervention(phi) == 0

    def test_partial_intervention(self):
        db = rex.database()
        question = UserQuestion.high(sigmod_query())
        ev = DegreeEvaluator(db, question)
        phi = parse_explanation(
            "Author.name = 'JG' AND Publication.year = 2001"
        )
        # Only P1 dies; P3 remains: Q(D-Δ) = 1, sign -1.
        assert ev.intervention(phi) == -1

    def test_low_direction(self):
        db = rex.database()
        question = UserQuestion.low(sigmod_query())
        ev = DegreeEvaluator(db, question)
        phi = parse_explanation(
            "Author.name = 'JG' AND Publication.year = 2001"
        )
        assert ev.intervention(phi) == 1

    def test_q_on_d(self):
        db = rex.database()
        ev = DegreeEvaluator(db, UserQuestion.high(sigmod_query()))
        assert ev.q_on_d == 2


class TestScore:
    def test_score_bundle(self):
        db = rex.database()
        question = UserQuestion.high(sigmod_query())
        ev = DegreeEvaluator(db, question)
        phi = parse_explanation(
            "Author.name = 'JG' AND Publication.year = 2001"
        )
        score = ev.score(phi)
        assert score.mu_aggr == 1  # only P1 satisfies phi among SIGMOD
        assert score.mu_interv == -1
        assert score.q_original == {"q": 2}
        assert score.delta_size == 3  # s1, s2, t1

    def test_intervention_result_embedded(self):
        db = rex.database()
        ev = DegreeEvaluator(db, UserQuestion.high(sigmod_query()))
        score = ev.score(parse_explanation("Author.name = 'RR'"))
        assert score.intervention.iterations >= 1
        assert score.intervention.size == score.delta_size
