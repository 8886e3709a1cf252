"""Tests for intervention-additivity analysis (Definition 4.2)."""

import pytest

from repro.core.additivity import analyze_additivity
from repro.core.numquery import AggregateQuery, ratio_query, single_query
from repro.datasets import chains
from repro.datasets import natality
from repro.datasets import running_example as rex
from repro.engine.aggregates import (
    agg_avg,
    agg_max,
    agg_sum,
    count_distinct,
    count_star,
)
from repro.errors import NotAdditiveError


def single(spec, where=None):
    return single_query(AggregateQuery("q", spec, where))


class TestNoBackAndForth:
    def test_count_star_additive(self):
        db = rex.database(back_and_forth=False)
        assert analyze_additivity(db, single(count_star("q"))).all_exact_cube

    def test_count_additive(self):
        from repro.engine.aggregates import AggregateSpec

        db = rex.database(back_and_forth=False)
        q = single(AggregateSpec("count", "Publication.year", "q"))
        assert analyze_additivity(db, q).all_exact_cube

    def test_sum_additive(self):
        db = rex.database(back_and_forth=False)
        q = single(agg_sum("Publication.year", "q"))
        assert analyze_additivity(db, q).all_exact_cube

    def test_avg_never_additive(self):
        db = rex.database(back_and_forth=False)
        q = single(agg_avg("Publication.year", "q"))
        assert not analyze_additivity(db, q).all_exact_cube

    def test_max_never_additive(self):
        db = rex.database(back_and_forth=False)
        q = single(agg_max("Publication.year", "q"))
        assert not analyze_additivity(db, q).all_exact_cube

    def test_single_table_count_star(self):
        db = natality.generate(rows=100, seed=1)
        assert analyze_additivity(db, single(count_star("q"))).all_exact_cube

    def test_count_distinct_own_pk_single_table(self):
        db = natality.generate(rows=100, seed=1)
        q = single(count_distinct("Birth.bid", "q"))
        assert analyze_additivity(db, q).all_exact_cube

    def test_count_distinct_non_pk_not_additive(self):
        db = natality.generate(rows=100, seed=1)
        q = single(count_distinct("Birth.race", "q"))
        assert not analyze_additivity(db, q).all_exact_cube


class TestWithBackAndForth:
    def test_count_star_not_additive(self):
        db = rex.database()
        assert not analyze_additivity(db, single(count_star("q"))).all_exact_cube

    def test_count_distinct_pubid_additive(self):
        """Footnote 11: the b&f key + unique Authored per U row."""
        db = rex.database()
        q = single(count_distinct("Publication.pubid", "q"))
        report = analyze_additivity(db, q)
        assert report.all_exact_cube
        assert "footnote 11" in report.verdicts[0].reason

    def test_count_distinct_author_id_not_additive(self):
        """No b&f key points at Author and authors repeat across rows."""
        db = rex.database()
        q = single(count_distinct("Author.id", "q"))
        assert not analyze_additivity(db, q).all_exact_cube

    def test_unqualified_argument_not_additive(self):
        db = rex.database()
        q = single(count_distinct("pubid", "q"))
        assert not analyze_additivity(db, q).all_exact_cube

    def test_chain_schema_count_distinct(self):
        """Two b&f keys into R1/R2; R3 unique per row -> additive for
        count(distinct R1.a)."""
        db, _ = chains.example_37(2)
        q = single(count_distinct("R1.a", "q"))
        report = analyze_additivity(db, q)
        assert report.all_exact_cube

    def test_sum_with_back_and_forth_not_additive(self):
        db = rex.database()
        q = single(agg_sum("Publication.year", "q"))
        assert not analyze_additivity(db, q).all_exact_cube


class TestReportMechanics:
    def test_mixed_query_not_additive(self):
        db = rex.database()
        q1 = AggregateQuery("q1", count_distinct("Publication.pubid", "q1"))
        q2 = AggregateQuery("q2", count_star("q2"))
        query = ratio_query(q1, q2)
        report = analyze_additivity(db, query)
        assert not report.all_exact_cube
        verdicts = {a.name: a.additive for a in report.verdicts}
        assert verdicts == {"q1": True, "q2": False}

    def test_explain_text(self):
        db = rex.database()
        report = analyze_additivity(db, single(count_star("q")))
        text = report.explain()
        assert "NOT" in text and "q" in text

    def test_raise_if_not_additive(self):
        db = rex.database()
        report = analyze_additivity(db, single(count_star("q")))
        with pytest.raises(NotAdditiveError):
            report.raise_if_not_additive()

    def test_no_raise_when_additive(self):
        db = rex.database()
        q = single(count_distinct("Publication.pubid", "q"))
        analyze_additivity(db, q).raise_if_not_additive()

    def test_repeated_source_rows_break_footnote11(self):
        """If Authored tuples repeated across universal rows, footnote
        11 would not apply.  Construct such a schema: the geo-dblp
        shape where Authored joins a chain below it keeps uniqueness,
        so instead check the negative branch directly on a 2-relation
        schema where the b&f *source* is the joined-many side."""
        from repro.engine.database import Database
        from repro.engine.schema import DatabaseSchema, foreign_key, make_schema

        schema = DatabaseSchema(
            (
                make_schema("Item", ["iid", "oid"], ["iid"]),
                make_schema("Order_", ["oid"], ["oid"]),
                make_schema("Part", ["pid", "iid"], ["pid"]),
            ),
            (
                foreign_key("Item", "oid", "Order_", "oid", back_and_forth=True),
                foreign_key("Part", "iid", "Item", "iid"),
            ),
        )
        db = Database(
            schema,
            {
                "Order_": [("o1",)],
                "Item": [("i1", "o1")],
                "Part": [("p1", "i1"), ("p2", "i1")],  # i1 occurs twice in U
            },
        )
        q = single(count_distinct("Order_.oid", "q"))
        report = analyze_additivity(db, q)
        assert not report.all_exact_cube
        assert "repeat" in report.verdicts[0].reason
