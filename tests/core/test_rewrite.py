"""Tests for the Section 4.1 back-and-forth elimination rewrite."""

import pytest

from repro.core.numquery import AggregateQuery, single_query
from repro.core.predicates import (
    AtomicPredicate,
    DisjunctivePredicate,
    Explanation,
    parse_explanation,
)
from repro.core.rewrite import PAD, rewrite_back_and_forth
from repro.datasets import running_example as rex
from repro.engine.aggregates import count_star
from repro.engine.universal import universal_table
from repro.errors import ExplanationError


@pytest.fixture
def rewritten():
    return rewrite_back_and_forth(rex.database())


class TestSchemaShape:
    def test_copies_created(self, rewritten):
        names = rewritten.database.schema.relation_names
        assert "Author__1" in names and "Authored__1" in names
        assert "Author" not in names
        assert "Publication" in names

    def test_fanout_observed(self, rewritten):
        # Every publication in Figure 3 has exactly 2 authors.
        assert rewritten.fanout == 2

    def test_no_back_and_forth_left(self, rewritten):
        assert not rewritten.database.schema.has_back_and_forth

    def test_publication_gains_kad_columns(self, rewritten):
        pub = rewritten.database.schema.relation("Publication")
        assert "kad_1" in pub.attribute_names
        assert "kad_2" in pub.attribute_names

    def test_integrity_holds(self, rewritten):
        rewritten.database.check_integrity()

    def test_copies_of(self, rewritten):
        assert rewritten.copies_of("Author") == ["Author__1", "Author__2"]
        with pytest.raises(ExplanationError):
            rewritten.copies_of("Publication")


class TestUniversalShape:
    def test_one_universal_row_per_publication(self, rewritten):
        """The rewrite's purpose: count(*) = count(distinct pubid)."""
        u = universal_table(rewritten.database)
        assert len(u) == 3  # P1, P2, P3

    def test_count_star_becomes_additive(self, rewritten):
        from repro.core.additivity import analyze_additivity

        q = single_query(AggregateQuery("q", count_star("q")))
        report = analyze_additivity(rewritten.database, q)
        assert report.all_exact_cube

    def test_each_row_carries_both_authors(self, rewritten):
        u = universal_table(rewritten.database)
        name1 = u.position("Author__1.name")
        name2 = u.position("Author__2.name")
        names_by_pub = {}
        pub = u.position("Publication.pubid")
        for row in u.rows():
            names_by_pub[row[pub]] = {row[name1], row[name2]}
        assert names_by_pub["P1"] == {"JG", "RR"}
        assert names_by_pub["P2"] == {"JG", "CM"}
        assert names_by_pub["P3"] == {"RR", "CM"}


class TestPredicateTranslation:
    def test_atom_on_copied_relation_becomes_disjunction(self, rewritten):
        atom = AtomicPredicate("Author", "name", "=", "JG")
        translated = rewritten.rewrite_atom(atom)
        assert isinstance(translated, DisjunctivePredicate)
        assert len(translated.disjuncts) == 2

    def test_atom_on_uncopied_relation_passes_through(self, rewritten):
        atom = AtomicPredicate("Publication", "year", "=", 2001)
        translated = rewritten.rewrite_atom(atom)
        assert isinstance(translated, Explanation)

    def test_translated_predicate_selects_same_publications(self, rewritten):
        """σ_φ' over the rewritten universal table finds exactly the
        publications whose original universal rows satisfied φ."""
        original_u = universal_table(rex.database())
        rewritten_u = universal_table(rewritten.database)
        phi = parse_explanation("Author.name = 'JG'")
        translated = rewritten.rewrite_explanation(phi)

        pub_pos = original_u.position("Publication.pubid")
        original_pubs = {
            row[pub_pos]
            for row in original_u.rows()
            if phi.evaluate(original_u.environment(row))
        }
        pub_pos2 = rewritten_u.position("Publication.pubid")
        expr = translated.to_expression()
        rewritten_pubs = {
            row[pub_pos2]
            for row in rewritten_u.rows()
            if expr.evaluate(rewritten_u.environment(row))
        }
        assert rewritten_pubs == original_pubs == {"P1", "P2"}

    def test_conjunction_mixing_copied_and_fixed(self, rewritten):
        phi = parse_explanation(
            "Author.name = 'JG' AND Publication.year = 2001"
        )
        translated = rewritten.rewrite_explanation(phi)
        assert isinstance(translated, DisjunctivePredicate)
        rewritten_u = universal_table(rewritten.database)
        pub_pos = rewritten_u.position("Publication.pubid")
        expr = translated.to_expression()
        pubs = {
            row[pub_pos]
            for row in rewritten_u.rows()
            if expr.evaluate(rewritten_u.environment(row))
        }
        assert pubs == {"P1"}

    def test_fixed_only_conjunction_passthrough(self, rewritten):
        phi = parse_explanation("Publication.year = 2001")
        assert rewritten.rewrite_explanation(phi) is phi


class TestPadding:
    def test_uneven_fanout_padded(self):
        db = rex.database()
        # Give P1 a third author so fanout becomes 3 and other
        # publications need padding.
        db.relation("Author").insert(("A4", "ZZ", "Z.edu", "edu"))
        db.relation("Authored").insert(("A4", "P1"))
        rewritten = rewrite_back_and_forth(db)
        assert rewritten.fanout == 3
        u = universal_table(rewritten.database)
        assert len(u) == 3
        # P2's third slot is a pad row.
        name3 = u.position("Author__3.name")
        pub = u.position("Publication.pubid")
        by_pub = {row[pub]: row[name3] for row in u.rows()}
        assert by_pub["P2"] == PAD

    def test_pad_rows_never_satisfy_predicates(self):
        db = rex.database()
        db.relation("Author").insert(("A4", "ZZ", "Z.edu", "edu"))
        db.relation("Authored").insert(("A4", "P1"))
        rewritten = rewrite_back_and_forth(db)
        phi = parse_explanation("Author.name = 'ZZ'")
        translated = rewritten.rewrite_explanation(phi)
        u = universal_table(rewritten.database)
        expr = translated.to_expression()
        matches = [
            row
            for row in u.rows()
            if expr.evaluate(u.environment(row))
        ]
        assert len(matches) == 1  # only P1

    def test_explicit_fanout_too_small(self):
        with pytest.raises(ExplanationError, match="fanout"):
            rewrite_back_and_forth(rex.database(), fanout=1)

    def test_explicit_fanout_larger(self):
        rewritten = rewrite_back_and_forth(rex.database(), fanout=3)
        assert rewritten.fanout == 3
        u = universal_table(rewritten.database)
        assert len(u) == 3


class TestPreconditions:
    def test_requires_exactly_one_bf_key(self):
        from repro.datasets import chains

        db, _ = chains.example_37(1)
        with pytest.raises(ExplanationError, match="exactly one"):
            rewrite_back_and_forth(db)

    def test_no_bf_key_rejected(self):
        with pytest.raises(ExplanationError):
            rewrite_back_and_forth(rex.database(back_and_forth=False))


class TestUnreferencedTarget:
    def test_publication_without_authors_gets_pad_slots(self):
        """A target tuple with no referencing tuples (only possible on
        a non-semijoin-reduced input) is padded on every slot rather
        than dropped — matching the 'replace with projections' reading
        would drop it, but the rewrite keeps the data lossless and the
        pad rows never satisfy predicates."""
        db = rex.database()
        db.relation("Publication").insert(("P9", 1999, "PODS"))
        rewritten = rewrite_back_and_forth(db)
        rewritten.database.check_integrity()
        pubs = rewritten.database.relation("Publication")
        row = next(r for r in pubs if r[0] == "P9")
        assert row is not None
        from repro.engine.universal import universal_table

        u = universal_table(rewritten.database)
        pub_pos = u.position("Publication.pubid")
        p9_rows = [r for r in u.rows() if r[pub_pos] == "P9"]
        assert len(p9_rows) == 1  # padded, joins once
        name_pos = u.position("Author__1.name")
        assert p9_rows[0][name_pos] == PAD
