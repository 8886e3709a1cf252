"""The footnote-11 boundary: predicate interplay breaks exactness.

The paper's sufficient condition for count(distinct R_i.pk) additivity
is structural (a back-and-forth key whose source is unique per
universal row).  It does not account for the *interaction between the
aggregate's WHERE predicate and φ*: a publication can satisfy the
WHERE through one author row and φ through a different author row, so
it is deleted by Δ^φ (back-and-forth cascade) yet never counted in
q(D_φ) — making ``q(D − Δ^φ) < q(D) − q(D_φ)``.

The paper's own setup contains this boundary: its Figure 1 footnote
admits papers with both industrial and academic authors, and its q's
filter on Author.dom while explanations range over Author.name /
affiliation.  In its experiments the explanation attributes
(affiliation → dom) *refine* the WHERE attributes, so the slack only
materializes on cross-domain papers.

These tests pin the exact mechanism with a minimal witness and verify
the two regimes: exactness when the WHERE touches only publication
attributes, slack when it also touches author attributes.
"""

import pytest

from repro.core import (
    AggregateQuery,
    DegreeEvaluator,
    UserQuestion,
    parse_explanation,
    single_query,
)
from repro.datasets import running_example as rex
from repro.engine.aggregates import count_distinct
from repro.engine.database import Database
from repro.engine.expressions import Col, Comparison, Const


@pytest.fixture
def cross_domain_db():
    """One publication (P1) with a com author (RR) and an edu author
    (JG); a second com-only publication (P3) for contrast."""
    db = Database(
        rex.schema(),
        {
            "Author": [rex.R1, rex.R2, rex.R3],
            "Authored": [rex.S1, rex.S2, rex.S5, rex.S6],
            "Publication": [rex.T1, rex.T3],
        },
    )
    return db


def com_count():
    """count(distinct pubid) WHERE dom = 'com'."""
    return AggregateQuery(
        "q",
        count_distinct("Publication.pubid", "q"),
        Comparison("=", Col("Author.dom"), Const("com")),
    )


def venue_count():
    """count(distinct pubid) WHERE venue = 'SIGMOD' (publication-side)."""
    return AggregateQuery(
        "q",
        count_distinct("Publication.pubid", "q"),
        Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
    )


class TestSlackWitness:
    def test_author_side_where_has_slack(self, cross_domain_db):
        """φ = [name = JG] deletes P1 entirely (back-and-forth), which
        removes P1 from the com count — but q(D_φ) = 0 because JG's
        rows have dom = edu.  The additive identity over-counts."""
        question = UserQuestion.high(single_query(com_count()))
        ev = DegreeEvaluator(cross_domain_db, question)
        phi = parse_explanation("Author.name = 'JG'")
        q_d = ev.q_original["q"]  # P1 and P3 both have com authors: 2
        q_phi = ev.aggravation_values(phi)["q"]  # no com JG rows: 0
        q_residual = ev.intervention_values(phi)["q"]  # only P3 left: 1
        assert q_d == 2 and q_phi == 0 and q_residual == 1
        # The identity fails by exactly the cross-domain paper:
        assert q_residual == q_d - q_phi - 1

    def test_publication_side_where_is_exact(self, cross_domain_db):
        """With the WHERE on Publication attributes, every φ-row of a
        deleted publication is also a WHERE-row (publication attributes
        are constant across a publication's universal rows), so the
        identity is exact."""
        question = UserQuestion.high(single_query(venue_count()))
        ev = DegreeEvaluator(cross_domain_db, question)
        for phi_text in (
            "Author.name = 'JG'",
            "Author.name = 'RR'",
            "Author.dom = 'edu'",
        ):
            phi = parse_explanation(phi_text)
            q_d = ev.q_original["q"]
            q_phi = ev.aggravation_values(phi)["q"]
            q_residual = ev.intervention_values(phi)["q"]
            assert q_residual == q_d - q_phi, phi_text

    def test_refining_phi_is_exact(self, cross_domain_db):
        """When φ refines the WHERE attribute (φ implies dom = com, as
        with the paper's affiliation explanations), the identity holds:
        every publication deleted via φ had a com φ-row."""
        question = UserQuestion.high(single_query(com_count()))
        ev = DegreeEvaluator(cross_domain_db, question)
        phi = parse_explanation("Author.inst = 'M.com'")  # RR: com only
        q_d = ev.q_original["q"]
        q_phi = ev.aggravation_values(phi)["q"]
        q_residual = ev.intervention_values(phi)["q"]
        assert q_residual == q_d - q_phi

    def test_checker_rejects_author_side_where(self, cross_domain_db):
        """The checker now closes the footnote-11 hole: the structural
        condition alone would pass here, but the WHERE filters on
        Author.dom, which Publication.pubid does not functionally
        determine (P1 has both a com and an edu author), so the verdict
        is NOT additive — matching the slack witness above."""
        from repro.core.additivity import analyze_additivity

        report = analyze_additivity(
            cross_domain_db, single_query(com_count())
        )
        assert not report.all_exact_cube
        assert "Author.dom" in report.verdicts[0].reason

    def test_checker_accepts_publication_side_where(self, cross_domain_db):
        """With the WHERE on Publication attributes only, the FD check
        is vacuous and the structural certificate stands — matching the
        exactness shown in test_publication_side_where_is_exact."""
        from repro.core.additivity import analyze_additivity

        report = analyze_additivity(
            cross_domain_db, single_query(venue_count())
        )
        assert report.all_exact_cube


class TestAudit:
    def test_audit_reports_slack(self, cross_domain_db):
        from support.additivity import audit_additivity

        phis = [
            parse_explanation("Author.name = 'JG'"),
            parse_explanation("Author.inst = 'M.com'"),
        ]
        results = audit_additivity(
            cross_domain_db, single_query(com_count()), phis
        )
        by_phi = {r.phi: r for r in results}
        assert by_phi["[Author.name = 'JG']"].slack == 1  # the witness
        assert by_phi["[Author.inst = 'M.com']"].slack == 0  # refining φ

    def test_audit_zero_slack_on_exact_query(self, cross_domain_db):
        from support.additivity import audit_additivity

        phis = [
            parse_explanation("Author.name = 'JG'"),
            parse_explanation("Author.dom = 'com'"),
        ]
        results = audit_additivity(
            cross_domain_db, single_query(venue_count()), phis
        )
        assert all(r.slack == 0 for r in results)
