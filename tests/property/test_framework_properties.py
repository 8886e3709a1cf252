"""Property-based tests for the upper framework layers (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AggregateQuery,
    UserQuestion,
    parse_explanation,
    rewrite_back_and_forth,
    single_query,
)
from repro.core.cube_algorithm import MU_AGGR, MU_INTERV, ExplanationTable
from repro.core.topk import (
    top_k_minimal_append,
    top_k_minimal_self_join,
    top_k_no_minimal,
)
from repro.engine.aggregates import count_distinct
from repro.engine.table import Table
from repro.engine.types import DUMMY
from repro.engine.universal import universal_table

from test_intervention_properties import explanations, small_databases

common = settings(max_examples=30)


class TestRewriteProperties:
    @common
    @given(db=small_databases(max_authors=3, max_pubs=3))
    def test_one_universal_row_per_publication(self, db):
        if len(db.relation("Publication")) == 0:
            return
        rewritten = rewrite_back_and_forth(db)
        u = universal_table(rewritten.database)
        assert len(u) == len(db.relation("Publication"))

    @common
    @given(db=small_databases(max_authors=3, max_pubs=3), phi=explanations())
    def test_rewritten_predicate_counts_match(self, db, phi):
        if len(db.relation("Publication")) == 0:
            return
        rewritten = rewrite_back_and_forth(db)
        original_u = universal_table(db)
        rewritten_u = universal_table(rewritten.database)
        # Only equality conjunctions translate; this strategy only
        # produces those.
        translated = rewritten.rewrite_explanation(phi)
        pub_pos = original_u.position("Publication.pubid")
        expected = {
            row[pub_pos]
            for row in original_u.rows()
            if phi.evaluate(original_u.environment(row))
        }
        expr = translated.to_expression()
        pub_pos2 = rewritten_u.position("Publication.pubid")
        got = {
            row[pub_pos2]
            for row in rewritten_u.rows()
            if expr.evaluate(rewritten_u.environment(row))
        }
        assert got == expected

    @common
    @given(db=small_databases(max_authors=3, max_pubs=3))
    def test_rewritten_database_has_integrity(self, db):
        if len(db.relation("Publication")) == 0:
            return
        rewritten = rewrite_back_and_forth(db)
        rewritten.database.check_integrity()


def m_tables():
    """Random explanation tables over two attributes.

    Explanation signatures (the attribute columns) are unique, as in a
    real table M: the cube emits one row per candidate explanation.
    """
    value = st.one_of(st.sampled_from(["x", "y", "z"]), st.just(DUMMY))
    row = st.tuples(value, value, st.integers(-20, 20))
    return st.lists(
        row, min_size=0, max_size=30, unique_by=lambda r: (r[0], r[1])
    ).map(_to_m)


def _to_m(rows):
    table = Table(
        ["R.a", "R.b", "v_q", MU_INTERV, MU_AGGR],
        [(a, b, 0, float(mu), float(mu)) for a, b, mu in rows],
    )
    return ExplanationTable(
        table=table,
        attributes=("R.a", "R.b"),
        aggregate_names=("q",),
        q_original={"q": 0},
    )


class TestTopKProperties:
    @common
    @given(m=m_tables(), k=st.integers(1, 10))
    def test_minimal_strategies_agree(self, m, k):
        """Self-join and append produce the same degree sequences."""
        a = top_k_minimal_self_join(m, k)
        b = top_k_minimal_append(m, k)
        assert [r.degree for r in a] == [r.degree for r in b]

    @common
    @given(m=m_tables(), k=st.integers(1, 10))
    def test_minimal_subset_of_no_minimal_universe(self, m, k):
        """Every minimal answer exists in the unrestricted ranking."""
        all_rows = {
            str(r.explanation)
            for r in top_k_no_minimal(m, len(m.table.rows()) + 1)
        }
        for r in top_k_minimal_append(m, k):
            assert str(r.explanation) in all_rows

    @common
    @given(m=m_tables(), k=st.integers(1, 10))
    def test_degrees_sorted_descending(self, m, k):
        for strategy in (
            top_k_no_minimal,
            top_k_minimal_self_join,
            top_k_minimal_append,
        ):
            degrees = [r.degree for r in strategy(m, k)]
            assert degrees == sorted(degrees, reverse=True)

    @common
    @given(m=m_tables(), k=st.integers(1, 10))
    def test_no_dominated_answer_in_minimal_output(self, m, k):
        """Every minimal-append answer has no strictly more general
        explanation with degree >= its own in the table."""
        from support.topk import dominated_rows

        dominated = dominated_rows(m)
        for r in top_k_minimal_append(m, k):
            assert r.row not in dominated

    @common
    @given(m=m_tables())
    def test_specific_and_general_partition_consistently(self, m):
        """A row cannot be undominated under both orders while a
        strict generalization with >= degree exists (sanity relation
        between the two minimality notions)."""
        from support.topk import dominated_rows

        general = dominated_rows(m, minimality="general")
        specific = dominated_rows(m, minimality="specific")
        # Both are subsets of the eligible rows.
        eligible = {
            row
            for row in m.table.rows()
            if not all(v is DUMMY for v in row[:2])
        }
        assert general <= eligible
        assert specific <= eligible


class TestCubeVsExactProperty:
    @settings(max_examples=15)
    @given(db=small_databases(max_authors=3, max_pubs=3))
    def test_cube_equals_exact_on_additive_query(self, db):
        """count(distinct pubid) without WHERE: the cube degrees equal
        ground truth for every explanation (no predicate-interplay
        boundary without a WHERE)."""
        from repro.core import Explainer

        question = UserQuestion.high(
            single_query(
                AggregateQuery("q", count_distinct("Publication.pubid", "q"))
            )
        )
        attrs = ["Author.name", "Publication.venue"]
        explainer = Explainer(db, question, attrs)
        cube_m = explainer.explanation_table("cube")
        exact_m = explainer.explanation_table("exact")

        def degree_map(m):
            return {
                str(m.explanation_of(row)): row[m.table.position(MU_INTERV)]
                for row in m.table.rows()
            }

        cube_map = degree_map(cube_m)
        exact_map = degree_map(exact_m)
        for key in set(cube_map) & set(exact_map):
            assert cube_map[key] == pytest.approx(exact_map[key]), key


class TestParseRoundTrip:
    @common
    @given(phi=explanations())
    def test_explanation_str_roundtrip(self, phi):
        """parse(str(φ)) reproduces φ for equality/range conjunctions."""
        from repro.core import parse_explanation

        reparsed = parse_explanation(str(phi))
        assert set(reparsed.atoms) == set(phi.atoms)

    @common
    @given(
        values=st.lists(st.integers(-5, 5), min_size=2, max_size=5),
    )
    def test_expression_evaluation_matches_python(self, values):
        """The expression parser agrees with Python arithmetic on
        linear combinations."""
        from repro.core.parsing import parse_expression

        names = [f"q{i}" for i in range(len(values))]
        text = " + ".join(f"2 * {n}" for n in names)
        expr = parse_expression(text)
        env = dict(zip(names, values))
        assert expr.evaluate(env) == sum(2 * v for v in values)
