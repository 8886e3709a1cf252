"""Property-based equivalence of the closure strategy (hypothesis).

Program P's least fixpoint is unique, so the closure index — which
replaces the chaotic iteration with precomputed FK cascade
reachability — must reproduce it *exactly* on every instance.  The
instances are the same random populations of the running-example
schema used by ``test_intervention_properties``; the properties are
the PR-8 content-identity contract:

* closure Δ^φ == fixpoint Δ^φ (both FK flavours);
* the closure Δ^φ is itself a valid intervention (Definition 2.6);
* closure repair rounds never exceed the fixpoint iteration count;
* μ_aggr / μ_interv scored through the closure engine equal the
  fixpoint scores bit-for-bit.
"""

from hypothesis import given

from repro.core import compute_intervention
from repro.core.degrees import DegreeEvaluator
from repro.core.numquery import AggregateQuery, single_query
from repro.core.question import UserQuestion
from repro.engine.aggregates import count_distinct
from repro.engine.expressions import Col, Comparison, Const
from repro.engine.types import is_null
from test_intervention_properties import (
    common_settings,
    explanations,
    small_databases,
)

from support.intervention import is_valid_intervention


def sigmod_question():
    """count(distinct pubid) where venue = SIGMOD, directed high."""
    return UserQuestion.high(
        single_query(
            AggregateQuery(
                "q",
                count_distinct("Publication.pubid", "q"),
                Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
            )
        )
    )


def _same_value(a, b):
    if is_null(a) or is_null(b):
        return is_null(a) and is_null(b)
    return a == b


class TestDeltaEquivalence:
    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_closure_matches_fixpoint_with_back_and_forth(self, db, phi):
        if db.total_rows() == 0:
            return
        fix = compute_intervention(db, phi, strategy="fixpoint")
        clo = compute_intervention(db, phi, strategy="closure")
        assert clo.delta == fix.delta
        assert clo.iterations <= max(fix.iterations, 1)

    @common_settings
    @given(db=small_databases(back_and_forth=False), phi=explanations())
    def test_closure_matches_fixpoint_without_back_and_forth(self, db, phi):
        if db.total_rows() == 0:
            return
        fix = compute_intervention(db, phi, strategy="fixpoint")
        clo = compute_intervention(db, phi, strategy="closure")
        assert clo.delta == fix.delta

    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_closure_delta_is_valid(self, db, phi):
        if db.total_rows() == 0:
            return
        result = compute_intervention(db, phi, strategy="closure")
        assert is_valid_intervention(db, phi, result.delta)


class TestDegreeEquivalence:
    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_scores_equal_under_both_strategies(self, db, phi):
        if db.total_rows() == 0:
            return
        question = sigmod_question()
        fix = DegreeEvaluator(db, question, strategy="fixpoint").score(phi)
        clo = DegreeEvaluator(db, question, strategy="closure").score(phi)
        assert _same_value(clo.mu_aggr, fix.mu_aggr)
        assert _same_value(clo.mu_interv, fix.mu_interv)
        assert clo.intervention.delta == fix.intervention.delta
