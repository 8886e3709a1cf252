"""Tests for the synthetic dataset generators."""

import pytest

from repro.datasets import chains, dblp, geodblp, natality, tpch
from repro.datasets import running_example as rex

from support.fixtures import example_210_database, example_29_database
from support.intervention import database_is_reduced


class TestRunningExample:
    def test_matches_figure_3(self):
        db = rex.database()
        assert len(db.relation("Author")) == 3
        assert len(db.relation("Authored")) == 6
        assert len(db.relation("Publication")) == 3
        db.check_integrity()

    def test_reduced(self):
        assert database_is_reduced(rex.database())
        assert database_is_reduced(example_29_database())
        assert database_is_reduced(example_210_database())


class TestChains:
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_size(self, p):
        db = chains.example_37_database(p)
        assert db.total_rows() == 4 * p + 1
        db.check_integrity()

    def test_reduced(self):
        assert database_is_reduced(chains.example_37_database(3))

    def test_invalid_p(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            chains.example_37_database(0)

    def test_single_bf_variant(self):
        db, phi = chains.single_back_and_forth_chain(2)
        assert len(db.schema.back_and_forth_keys) == 1
        db.check_integrity()


class TestNatality:
    def test_deterministic(self):
        a = natality.generate(rows=500, seed=42)
        b = natality.generate(rows=500, seed=42)
        assert a == b

    def test_seed_changes_data(self):
        a = natality.generate(rows=500, seed=1)
        b = natality.generate(rows=500, seed=2)
        assert a != b

    def test_size(self):
        db = natality.generate(rows=1234, seed=0)
        assert len(db.relation("Birth")) == 1234

    def test_reduced_and_consistent(self):
        db = natality.generate(rows=200, seed=0)
        db.check_integrity()
        assert database_is_reduced(db)

    def test_value_domains(self):
        db = natality.generate(rows=2000, seed=3)
        rel = db.relation("Birth")
        assert rel.project_values("ap") <= set(natality.AP_VALUES)
        assert rel.project_values("race") <= set(natality.RACE_VALUES)
        assert rel.project_values("marital") <= set(natality.MARITAL_VALUES)

    def test_figure7_shape(self):
        """Planted marginals: good >> poor everywhere; Asian ratio
        highest, Black ratio lowest (Figure 8's ordering)."""
        db = natality.generate(rows=60_000, seed=7)
        tables = natality.figure7_table(db)
        by_race = tables["race"]

        def ratio(race):
            good = by_race.get(("good", race), 0)
            poor = max(by_race.get(("poor", race), 0), 1)
            return good / poor

        assert ratio("Asian") > ratio("White") > ratio("Black")

    def test_marital_ratio_above_one(self):
        db = natality.generate(rows=60_000, seed=7)
        by_m = natality.figure7_table(db)["marital"]
        married = by_m[("good", "married")] / max(by_m[("poor", "married")], 1)
        unmarried = by_m[("good", "unmarried")] / max(
            by_m[("poor", "unmarried")], 1
        )
        assert married > unmarried  # Q_Marital(D) > 1, as in the paper

    def test_question_builders(self):
        q = natality.q_race_question()
        assert q.query.names == ("q1", "q2")
        q4 = natality.q_marital_question()
        assert q4.query.names == ("q1", "q2", "q3", "q4")
        qp = natality.q_race_prime_question()
        assert len(qp.query.aggregates) == 4

    def test_default_attributes(self):
        assert len(natality.default_attributes("race")) == 5
        assert "Birth.race" in natality.default_attributes("marital")
        assert len(natality.extended_attributes()) == 8
        with pytest.raises(ValueError):
            natality.default_attributes("zzz")


class TestDblp:
    def test_deterministic(self):
        a = dblp.generate(scale=0.3, seed=9)
        b = dblp.generate(scale=0.3, seed=9)
        assert a == b

    def test_integrity_and_reduction(self):
        db = dblp.generate(scale=0.3, seed=9)
        db.check_integrity()
        assert database_is_reduced(db)

    def test_scale_grows_volume(self):
        small = dblp.generate(scale=0.3, seed=9)
        large = dblp.generate(scale=1.0, seed=9)
        assert len(large.relation("Publication")) > len(
            small.relation("Publication")
        )

    def test_bump_exists(self):
        """The planted phenomenon: Q(D) = (q1/q2)/(q4/q3) > 1."""
        db = dblp.generate(scale=1.0, seed=9)
        question = dblp.bump_question()
        from repro.engine.universal import universal_table

        u = universal_table(db)
        assert question.query.evaluate_universal(u) > 1.5

    def test_window_series_shape(self):
        """com rises then falls; edu keeps rising (Figure 1)."""
        db = dblp.generate(scale=1.0, seed=9)
        series = dblp.five_year_window_counts(db)
        com = [c for _, c in series["com"]]
        edu = [c for _, c in series["edu"]]
        # Industrial counts peak before the end and decline after.
        assert max(com) > com[-1]
        # Academic counts end near their maximum.
        assert edu[-1] >= 0.8 * max(edu)

    def test_question_is_not_additive(self):
        # The bump question filters on Author.dom while counting
        # distinct pubids; ~8% of generated papers have authors from
        # both domains, so the counted key does not determine the WHERE
        # column and the footnote-11 certificate correctly refuses the
        # cube (the indexed evaluator is the recommended exact method).
        from repro.core.additivity import analyze_additivity

        db = dblp.generate(scale=0.5, seed=9)
        report = analyze_additivity(db, dblp.bump_question().query)
        assert not report.all_exact_cube
        assert "Author.dom" in report.verdicts[0].reason


class TestGeoDblp:
    def test_deterministic(self):
        assert geodblp.generate(scale=0.5, seed=4) == geodblp.generate(
            scale=0.5, seed=4
        )

    def test_integrity_and_reduction(self):
        db = geodblp.generate(scale=0.5, seed=4)
        db.check_integrity()
        assert database_is_reduced(db)

    def test_eight_relations(self):
        db = geodblp.generate(scale=0.5, seed=4)
        assert len(db.schema.relations) == 8

    def test_uk_anomaly_planted(self):
        """More than ~50% of UK papers are PODS (Figure 15a)."""
        db = geodblp.generate(scale=1.0, seed=4)
        pct = geodblp.country_venue_percentages(db)
        assert pct["United Kingdom"]["PODS"] > 50
        assert pct["USA"]["SIGMOD"] > 50

    def test_question_is_additive(self):
        from repro.core.additivity import analyze_additivity

        db = geodblp.generate(scale=0.5, seed=4)
        report = analyze_additivity(db, geodblp.uk_question().query)
        assert report.all_exact_cube

    def test_question_value_below_one(self):
        from repro.engine.universal import universal_table

        db = geodblp.generate(scale=1.0, seed=4)
        u = universal_table(db)
        assert geodblp.uk_question().query.evaluate_universal(u) < 1.0


class TestNatalityWideAttributes:
    def test_new_columns_present(self):
        db = natality.generate(rows=500, seed=1)
        rel = db.relation("Birth")
        assert rel.project_values("plurality") <= set(natality.PLURALITY_VALUES)
        assert rel.project_values("gestation") <= set(natality.GESTATION_VALUES)
        assert rel.project_values("delivery") <= set(natality.DELIVERY_VALUES)
        assert rel.project_values("birthplace") <= set(
            natality.BIRTHPLACE_VALUES
        )

    def test_wide_attribute_list(self):
        wide = natality.wide_attributes()
        assert len(wide) == 12
        assert "Birth.gestation" in wide
        db = natality.generate(rows=200, seed=1)
        from repro.engine.universal import universal_table

        u = universal_table(db)
        for attr in wide:
            u.position(attr)  # all resolvable

    def test_preterm_raises_risk(self):
        """Planted effect: preterm births have worse APGAR rates."""
        db = natality.generate(rows=60_000, seed=11)
        from repro.engine.universal import universal_table

        u = universal_table(db)
        gest_pos = u.position("Birth.gestation")
        ap_pos = u.position("Birth.ap")
        counts = {}
        for row in u.rows():
            key = (row[gest_pos], row[ap_pos])
            counts[key] = counts.get(key, 0) + 1

        def poor_rate(g):
            poor = counts.get((g, "poor"), 0)
            good = counts.get((g, "good"), 0)
            return poor / max(poor + good, 1)

        assert poor_rate("preterm") > poor_rate("term")


class TestTpch:
    def test_deterministic(self):
        assert tpch.generate(sf=0.01, seed=9) == tpch.generate(
            sf=0.01, seed=9
        )

    def test_integrity_not_reduced(self):
        db = tpch.generate(sf=0.01, seed=2014)
        db.check_integrity()
        # Deliberately NOT semijoin-reduced: the single Nation instance
        # on the Customer-Nation-Supplier cycle means only "local
        # supplier" lineitems survive into U (TPC-H Q5 semantics), and
        # the non-local remainder is exactly what program P's rules
        # (ii)/(iii) get to cascade over.
        assert not database_is_reduced(db)

    def test_eight_relations_cyclic_schema(self):
        db = tpch.generate(sf=0.01, seed=2014)
        assert len(db.schema.relations) == 8
        assert len(db.schema.foreign_keys) == 8

    def test_local_supplier_majority_in_universal(self):
        """U keeps only customer-nation == supplier-nation lineitems;
        the planted 65% local-supplier rate keeps U large enough that
        every planted question has support."""
        from repro.engine.universal import universal_table

        db = tpch.generate(sf=0.01, seed=2014)
        u = universal_table(db)
        lineitems = len(db.relation("Lineitem"))
        assert 0.5 * lineitems < len(u.rows()) < 0.8 * lineitems

    @pytest.mark.parametrize(
        "name",
        [n for n in ("europe-bump", "region-share", "returned-share",
                     "promo-share", "urgent-air", "brand-revenue")],
    )
    def test_planted_top_explanation(self, name):
        """The registry's planted atom appears in the rank-1
        explanation at the canonical instance (sf 0.01, seed 2014).
        france-surge has no single planted driver and is pinned by the
        golden snapshot instead."""
        from repro.core import Explainer

        db = tpch.generate(sf=0.01, seed=2014)
        _, _, planted = tpch.QUESTIONS[name]
        ex = Explainer(
            db, tpch.question(name), tpch.question_attributes(name)
        )
        top = ex.top(1)
        assert top, f"{name}: empty ranking"
        assert planted in str(top[0].explanation), (
            f"{name}: planted {planted!r} not in {top[0].explanation}"
        )

    def test_question_registry_helpers(self):
        assert len(tpch.QUESTIONS) == 7
        assert tpch.default_attributes() == tpch.question_attributes(
            "europe-bump"
        )
        assert str(tpch.default_question()) == str(
            tpch.question("europe-bump")
        )
        with pytest.raises(KeyError):
            tpch.question("no-such-question")


class TestGeneratorEdgeCases:
    def test_zero_rows(self):
        db = natality.generate(rows=0, seed=1)
        assert len(db.relation("Birth")) == 0

    def test_one_row(self):
        db = natality.generate(rows=1, seed=1)
        assert len(db.relation("Birth")) == 1

    def test_tiny_dblp_scale(self):
        db = dblp.generate(scale=0.01, seed=1)
        db.check_integrity()
        from support.intervention import database_is_reduced

        assert database_is_reduced(db)

    def test_tiny_geodblp_scale(self):
        db = geodblp.generate(scale=0.05, seed=1)
        db.check_integrity()
        from support.intervention import database_is_reduced

        assert database_is_reduced(db)


class TestQRacePrime:
    def test_double_ratio_race_question_end_to_end(self):
        """Q'_Race (Asian good/poor relative to Black) — the second
        Section 5.1 question; the protective profile surfaces again."""
        from repro.core import Explainer

        db = natality.generate(rows=20_000, seed=7)
        ex = Explainer(
            db,
            natality.q_race_prime_question(),
            natality.default_attributes("race"),
        )
        assert ex.additivity_report().all_exact_cube
        assert ex.original_value() > 1  # Asian ratio beats Black ratio
        top = ex.top(5)
        assert len(top) == 5
        texts = " ".join(str(r.explanation) for r in top)
        assert any(
            v in texts
            for v in ("married", "1st", "nonsmoking", ">=16yrs", "30-34", "13-15yrs", "35-39")
        )


class TestNoiseAttributes:
    def test_noise_columns_appended(self):
        db = natality.generate(rows=300, seed=1, noise_attributes=3)
        birth = db.schema.relation("Birth")
        assert birth.has_attribute("x1")
        assert birth.has_attribute("x3")
        assert not birth.has_attribute("x4")

    def test_noise_deterministic(self):
        a = natality.generate(rows=300, seed=1, noise_attributes=2)
        b = natality.generate(rows=300, seed=1, noise_attributes=2)
        assert a == b

    def test_noise_cardinality(self):
        db = natality.generate(rows=2000, seed=1, noise_attributes=2)
        rel = db.relation("Birth")
        assert 3 <= len(rel.project_values("x1")) <= 6

    def test_noise_columns_usable_as_attributes(self):
        from repro.core import Explainer

        db = natality.generate(rows=1000, seed=1, noise_attributes=1)
        ex = Explainer(
            db,
            natality.q_race_question(),
            ["Birth.marital", "Birth.x1"],
        )
        assert len(ex.top(3)) >= 1

    def test_default_has_no_noise(self):
        db = natality.generate(rows=10, seed=1)
        assert not db.schema.relation("Birth").has_attribute("x1")
