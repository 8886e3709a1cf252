"""Tests for the indexed exact evaluator (Section 6(i) optimization)."""

import pytest

from repro.core.cube_algorithm import MU_AGGR, MU_INTERV
from repro.core.explainer import Explainer
from repro.core.iterative import IndexedInterventionEvaluator
from repro.core.numquery import AggregateQuery, single_query
from repro.core.question import UserQuestion
from repro.datasets import dblp, natality
from repro.datasets import running_example as rex
from repro.engine.aggregates import (
    AggregateSpec,
    count_distinct,
    count_star,
)
from repro.engine.database import Database
from repro.engine.expressions import Col, Comparison, Const
from repro.engine.schema import single_table_schema
from repro.engine.types import NULL


def sigmod_question():
    return UserQuestion.high(
        single_query(
            AggregateQuery(
                "q",
                count_distinct("Publication.pubid", "q"),
                Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
            )
        )
    )


def count_star_question():
    return UserQuestion.high(
        single_query(AggregateQuery("q", count_star("q")))
    )


ATTRS = ("Author.name", "Publication.year")


def degree_map(m, column):
    return {
        str(m.explanation_of(row)): row[m.table.position(column)]
        for row in m.table.rows()
    }


class TestEquivalenceWithExact:
    def test_matches_exact_on_running_example(self):
        db = rex.database()
        question = sigmod_question()
        indexed = IndexedInterventionEvaluator(db, question, ATTRS)
        m_indexed = indexed.build_table()
        explainer = Explainer(db, question, ATTRS)
        m_exact = explainer.explanation_table("exact")
        for column in (MU_INTERV, MU_AGGR):
            fast = degree_map(m_indexed, column)
            slow = degree_map(m_exact, column)
            # Exact enumerates all domain combinations; indexed only
            # supported cells.  Compare on the intersection.
            shared = set(fast) & set(slow)
            assert len(shared) >= len(fast)  # fast ⊆ slow
            for key in fast:
                assert fast[key] == pytest.approx(slow[key]), (column, key)

    def test_handles_non_additive_count_star(self):
        """The whole point: count(*) with a back-and-forth key is not
        cube-eligible, and the indexed evaluator is exact there."""
        db = rex.database()
        question = count_star_question()
        indexed = IndexedInterventionEvaluator(db, question, ATTRS)
        m_indexed = indexed.build_table()
        explainer = Explainer(db, question, ATTRS)
        m_exact = explainer.explanation_table("exact")
        fast = degree_map(m_indexed, MU_INTERV)
        slow = degree_map(m_exact, MU_INTERV)
        for key in fast:
            assert fast[key] == pytest.approx(slow[key]), key

    def test_matches_exact_on_dblp(self):
        db = dblp.generate(scale=0.15, seed=8)
        question = count_star_question()
        attrs = ("Author.inst",)
        indexed = IndexedInterventionEvaluator(db, question, attrs)
        m_indexed = indexed.build_table()
        explainer = Explainer(db, question, list(attrs))
        m_exact = explainer.explanation_table("exact")
        fast = degree_map(m_indexed, MU_INTERV)
        slow = degree_map(m_exact, MU_INTERV)
        for key in fast:
            assert fast[key] == pytest.approx(slow[key]), key

    def test_count_of_a_column_skips_nulls(self):
        """count(T.x) counts non-NULL arguments alone, as cube and exact do."""
        db = Database(
            single_table_schema("T", ["id", "g", "x"], ["id"]),
            {"T": [(1, "a", 1), (2, "a", NULL), (3, "b", NULL),
                   (4, "b", 2), (5, "a", NULL)]},
        )
        question = UserQuestion.high(
            single_query(AggregateQuery("q1", AggregateSpec("count", "T.x", "q1")))
        )
        explainer = Explainer(db, question, ["T.g"])
        tables = {
            method: explainer.explanation_table(method)
            for method in ("cube", "exact", "indexed")
        }
        assert {m.q_original["q1"] for m in tables.values()} == {2}
        cube = degree_map(tables["cube"], MU_INTERV)
        assert cube["[T.g = 'a']"] == cube["[T.g = 'b']"] == -1
        for column in (MU_INTERV, MU_AGGR):
            expected = degree_map(tables["cube"], column)
            assert degree_map(tables["exact"], column) == expected, column
            assert degree_map(tables["indexed"], column) == expected, column

    def test_matches_cube_on_additive_single_table(self):
        db = natality.generate(rows=600, seed=13)
        question = natality.q_race_question()
        attrs = ("Birth.marital", "Birth.tobacco")
        indexed = IndexedInterventionEvaluator(db, question, attrs)
        m_indexed = indexed.build_table()
        explainer = Explainer(db, question, list(attrs))
        m_cube = explainer.explanation_table("cube")
        fast = degree_map(m_indexed, MU_INTERV)
        cube = degree_map(m_cube, MU_INTERV)
        # The cube only materializes cells with support in the filtered
        # (Asian) sub-population; indexed covers all of U -> superset.
        assert set(cube) <= set(fast)
        for key in cube:
            assert fast[key] == pytest.approx(cube[key]), key


    @pytest.mark.parametrize("kind", ["sum", "avg", "min", "max"])
    def test_every_kind_matches_exact(self, kind):
        """indexed evaluates any aggregate through its accumulator: on
        integer data its degrees equal exact's, NULL degrees included."""
        db = rex.database()
        question = UserQuestion.high(
            single_query(
                AggregateQuery(
                    "q",
                    AggregateSpec(kind, "Publication.year", "q"),
                    Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
                )
            )
        )
        explainer = Explainer(db, question, ATTRS)
        m_indexed = explainer.explanation_table("indexed")
        m_exact = explainer.explanation_table("exact")
        assert m_indexed.q_original == m_exact.q_original
        for column in (MU_INTERV, MU_AGGR):
            fast = degree_map(m_indexed, column)
            slow = degree_map(m_exact, column)
            for key in fast:
                assert fast[key] == slow[key], (column, key)


class TestInternals:
    def test_phi_row_ids_intersection(self):
        db = rex.database()
        ev = IndexedInterventionEvaluator(db, sigmod_question(), ATTRS)
        rows_jg = ev.phi_row_ids({"Author.name": "JG"})
        rows_2001 = ev.phi_row_ids({"Publication.year": 2001})
        both = ev.phi_row_ids(
            {"Author.name": "JG", "Publication.year": 2001}
        )
        assert both == rows_jg & rows_2001
        assert len(both) == 1  # only u1

    def test_empty_assignment_is_all_rows(self):
        db = rex.database()
        ev = IndexedInterventionEvaluator(db, sigmod_question(), ATTRS)
        assert len(ev.phi_row_ids({})) == 6

    def test_unsupported_value_yields_empty(self):
        db = rex.database()
        ev = IndexedInterventionEvaluator(db, sigmod_question(), ATTRS)
        assert ev.phi_row_ids({"Author.name": "NOBODY"}) == set()

    def test_seeds_match_engine_seeds(self):
        from repro.core import parse_explanation
        from repro.core.intervention import FixpointStrategy

        db = rex.database()
        ev = IndexedInterventionEvaluator(db, sigmod_question(), ATTRS)
        engine = FixpointStrategy(db)
        for assignment in (
            {"Author.name": "JG"},
            {"Author.name": "JG", "Publication.year": 2001},
            {"Publication.year": 2011},
        ):
            phi_text = " AND ".join(
                f"{a} = {v!r}" for a, v in assignment.items()
            )
            phi = parse_explanation(phi_text)
            expected = engine.seed_delta(phi)
            got = ev.seeds_from_rows(ev.phi_row_ids(assignment))
            assert got == expected, assignment

    def test_candidate_set_matches_cube_cells(self):
        db = rex.database()
        question = sigmod_question()
        ev = IndexedInterventionEvaluator(db, question, ATTRS)
        candidates = ev.candidate_assignments()
        # 6 (name,year) pairs -> 5 distinct; + 3 names + 2 years + trivial
        texts = {tuple(sorted(c.items())) for c in candidates}
        assert len(texts) == len(candidates)  # no duplicates
        assert {} in [c for c in candidates if not c]  # trivial present
        assert len(candidates) == 1 + 3 + 2 + 5

    def test_surviving_rows_empty_delta(self):
        from repro.engine.database import Delta

        db = rex.database()
        ev = IndexedInterventionEvaluator(db, sigmod_question(), ATTRS)
        assert len(ev.surviving_row_ids(Delta.empty(db.schema))) == 6
