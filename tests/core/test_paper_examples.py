"""Every worked example in the paper, as an executable test.

* Example 2.8 — the asymmetric intervention on the running example,
  and its symmetric variant when the key is standard;
* Example 2.9 — semijoin-reduction forces a unique minimal
  intervention (= the whole database);
* Example 2.10 — non-monotonicity: inserting tuples *shrinks* Δ^φ;
* Example 3.7 / Figure 5 — the Θ(n) iteration chain;
* Example 4.1 — the cube table row for row (in tests/engine/test_cube);
* footnote 11 — count(distinct pubid) is intervention-additive on the
  running example.
"""

import pytest

from repro.core import (
    DegreeEvaluator,
    UserQuestion,
    analyze_additivity,
    compute_intervention,
    parse_explanation,
    single_query,
)
from repro.core.numquery import AggregateQuery
from repro.engine.aggregates import count_distinct, count_star
from repro.engine.database import Delta
from repro.datasets import chains
from repro.datasets import running_example as rex

from support.fixtures import example_210_database, example_29_database
from support.intervention import is_valid_intervention


PHI_28 = parse_explanation("Author.name = 'JG' AND Publication.year = 2001")


class TestExample28:
    """Example 2.8: Δ_Author = ∅, Δ_Authored = {s1, s2}, Δ_Pub = {t1}."""

    def test_back_and_forth_intervention(self):
        db = rex.database()
        result = compute_intervention(db, PHI_28)
        assert result.delta.rows_for("Author") == frozenset()
        assert result.delta.rows_for("Authored") == {rex.S1, rex.S2}
        assert result.delta.rows_for("Publication") == {rex.T1}

    def test_standard_key_intervention_is_smaller(self):
        """With both keys standard, only s1 is deleted."""
        db = rex.database(back_and_forth=False)
        result = compute_intervention(db, PHI_28)
        assert result.delta.rows_for("Author") == frozenset()
        assert result.delta.rows_for("Authored") == {rex.S1}
        assert result.delta.rows_for("Publication") == frozenset()

    def test_intervention_is_valid(self):
        db = rex.database()
        result = compute_intervention(db, PHI_28)
        assert is_valid_intervention(db, PHI_28, result.delta)

    def test_intervention_is_minimal_exhaustively(self):
        """Δ^φ ⊆ Δ' for every valid Δ' (checked over singleton-removals).

        Removing any single tuple from Δ^φ must break validity.
        """
        db = rex.database()
        delta = compute_intervention(db, PHI_28).delta
        for name in db.schema.relation_names:
            for row in delta.rows_for(name):
                parts = delta.parts()
                parts[name] = parts[name] - {row}
                smaller = Delta(db.schema, parts)
                assert not is_valid_intervention(db, PHI_28, smaller)

    def test_author_jg_survives(self):
        """The causal asymmetry: the 2001 paper dies, its author lives."""
        db = rex.database()
        delta = compute_intervention(db, PHI_28).delta
        residual = db.subtract(delta)
        assert rex.R1 in residual.relation("Author")
        assert rex.T1 not in residual.relation("Publication")


class TestExample29:
    """Example 2.9: without semijoin reduction two minimal interventions
    would exist; with it, Δ^φ = D."""

    PHI = parse_explanation("R1.x = 'a' AND R2.y = 'b' AND R3.z = 'c'")

    def test_minimal_intervention_is_whole_database(self):
        db = example_29_database()
        result = compute_intervention(db, self.PHI)
        assert result.size == db.total_rows()

    def test_partial_deletions_are_invalid(self):
        """Both 'competing' minimal candidates from the example fail
        the semijoin-reduction condition."""
        db = example_29_database()
        for candidate in (
            Delta(db.schema, {"S1": [("a", "b")]}),
            Delta(db.schema, {"S2": [("b", "c")]}),
        ):
            assert not is_valid_intervention(db, self.PHI, candidate)


class TestExample210:
    """Example 2.10: Δ^φ is non-monotone in the input database."""

    PHI = TestExample29.PHI

    def test_delta_shrinks_when_database_grows(self):
        small = example_29_database()
        big = example_210_database()
        delta_small = compute_intervention(small, self.PHI).delta
        delta_big = compute_intervention(big, self.PHI).delta
        assert delta_small.size() == 5
        assert delta_big.size() == 3
        # The paper's exact delta: {S1(a,b), R2(b), S2(b,c)}.
        assert delta_big.rows_for("S1") == {("a", "b")}
        assert delta_big.rows_for("R2") == {("b",)}
        assert delta_big.rows_for("S2") == {("b", "c")}
        assert delta_big.rows_for("R1") == frozenset()
        assert delta_big.rows_for("R3") == frozenset()

    def test_r1a_and_r3c_survive(self):
        big = example_210_database()
        delta = compute_intervention(big, self.PHI).delta
        residual = big.subtract(delta)
        assert ("a",) in residual.relation("R1")
        assert ("c",) in residual.relation("R3")

    def test_big_delta_is_valid(self):
        big = example_210_database()
        delta = compute_intervention(big, self.PHI).delta
        assert is_valid_intervention(big, self.PHI, delta)


class TestExample37:
    """The Θ(n) chain (Figure 5)."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_iteration_count(self, p):
        db, phi = chains.example_37(p)
        result = compute_intervention(db, phi, strategy="fixpoint")
        assert result.iterations == chains.expected_iterations(p)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_everything_deleted(self, p):
        db, phi = chains.example_37(p)
        result = compute_intervention(db, phi)
        assert result.size == db.total_rows() == 4 * p + 1

    def test_iterations_grow_linearly(self):
        counts = []
        for p in (1, 2, 4):
            db, phi = chains.example_37(p)
            counts.append(
                compute_intervention(db, phi, strategy="fixpoint").iterations
            )
        assert counts == [3, 7, 15]

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_within_proposition_34_bound(self, p):
        db, phi = chains.example_37(p)
        result = compute_intervention(db, phi)
        assert result.iterations <= db.total_rows()


class TestFootnote11:
    """count(distinct pubid) is intervention-additive on the running
    example: q(D - Δ^φ) = q(D) - q(D_φ)."""

    def _query(self):
        return single_query(
            AggregateQuery("q", count_distinct("Publication.pubid", "q"))
        )

    def test_additivity_report(self):
        db = rex.database()
        report = analyze_additivity(db, self._query())
        assert report.all_exact_cube

    @pytest.mark.parametrize(
        "phi_text",
        [
            "Author.name = 'JG' AND Publication.year = 2001",
            "Author.name = 'JG'",
            "Publication.year = 2001",
            "Author.dom = 'com'",
            "Author.inst = 'I.com'",
        ],
    )
    def test_additive_identity_holds(self, phi_text):
        db = rex.database()
        phi = parse_explanation(phi_text)
        question = UserQuestion.high(self._query())
        evaluator = DegreeEvaluator(db, question)
        q_d = evaluator.q_original["q"]
        q_phi = evaluator.aggravation_values(phi)["q"]
        q_residual = evaluator.intervention_values(phi)["q"]
        assert q_residual == q_d - q_phi

    def test_count_star_not_additive_here(self):
        """count(*) with a back-and-forth key is NOT additive (Sec 4.1)."""
        db = rex.database()
        query = single_query(AggregateQuery("q", count_star("q")))
        report = analyze_additivity(db, query)
        assert not report.all_exact_cube

    def test_count_star_identity_actually_fails(self):
        """Concrete witness that the additive identity breaks for
        count(*): deleting P1 (via φ on JG∧2001) also removes RR's
        authorship row u5? No — u5 survives; but s2 is cascaded, so
        count(*) drops by 3 while σ_φ(U) has only 1 row."""
        db = rex.database()
        phi = PHI_28
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        evaluator = DegreeEvaluator(db, question)
        q_d = evaluator.q_original["q"]          # 6 universal rows
        q_phi = evaluator.aggravation_values(phi)["q"]   # 1 row satisfies φ
        q_residual = evaluator.intervention_values(phi)["q"]
        assert q_d == 6 and q_phi == 1
        assert q_residual == 4  # u1, u2 both die with P1
        assert q_residual != q_d - q_phi
