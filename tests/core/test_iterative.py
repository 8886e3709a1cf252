"""Tests for the indexed exact evaluator (Section 6(i) optimization)."""

from itertools import product

import pytest

from repro.core.cube_algorithm import MU_AGGR, MU_INTERV
from repro.core.explainer import Explainer
from repro.core.iterative import IndexedInterventionEvaluator
from repro.core.numquery import AggregateQuery, single_query
from repro.core.parsing import parse_question
from repro.core.question import UserQuestion
from repro.datasets import dblp, natality
from repro.datasets import running_example as rex
from repro.engine.aggregates import (
    AGGREGATE_KINDS,
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


def ask_question():
    """``repro ask``'s DBLP question: four needs-iterative counts."""
    return parse_question(
        "high",
        "((q1 + 0.0001) / (q2 + 0.0001)) / ((q3 + 0.0001) / (q4 + 0.0001))",
        [
            f"{name} := count(distinct Publication.pubid) "
            f"WHERE Publication.venue = 'SIGMOD' AND Author.dom = '{dom}' "
            f"AND Publication.year >= {lo} AND Publication.year <= {hi}"
            for name, dom, lo, hi in (
                ("q1", "com", 2000, 2004),
                ("q2", "com", 2007, 2011),
                ("q3", "edu", 2000, 2004),
                ("q4", "edu", 2007, 2011),
            )
        ],
    )


ASK_ATTRS = ("Author.inst", "Author.name")


def running_example_case():
    return rex.database(), sigmod_question(), ATTRS


def dblp_case():
    return dblp.generate(scale=0.25, seed=2014), ask_question(), ASK_ATTRS


def observed_columns(m):
    """Per candidate: its v_j values and μ_aggr."""
    names = [f"v_{name}" for name in m.aggregate_names] + [MU_AGGR]
    positions = m.table.positions(names)
    return {
        str(m.explanation_of(row)): tuple(row[p] for p in positions)
        for row in m.table.rows()
    }


class TestRebuiltTable:
    """*M* from the cube plus a program-P μ_interv column."""

    @pytest.mark.parametrize("case", [running_example_case, dblp_case])
    def test_candidate_set_is_every_combination_in_u(self, case):
        db, question, attrs = case()
        ev = IndexedInterventionEvaluator(db, question, attrs)
        columns = [ev.universal.column(a) for a in attrs]
        expected = {
            frozenset((a, v) for a, v, keep in zip(attrs, row, mask) if keep)
            for row in zip(*columns)
            for mask in product((False, True), repeat=len(attrs))
        }
        candidates = [frozenset(c.items()) for c in ev.candidate_assignments()]
        assert len(candidates) == len(set(candidates))
        assert set(candidates) == expected
        assert frozenset() in expected  # the trivial explanation
        m = ev.build_table()
        assert len(m) == len(expected)
        assert {
            frozenset(
                (f"{a.relation}.{a.attribute}", a.constant)
                for a in m.explanation_of(row).atoms
            )
            for row in m.table.rows()
        } == expected

    @pytest.mark.parametrize("kind", AGGREGATE_KINDS)
    def test_observed_columns_equal_exact(self, kind):
        """v_j, μ_aggr and q_original equal exact's on every key, for
        every aggregate kind."""
        argument = None if kind == "count_star" else "Publication.year"
        question = UserQuestion.high(
            single_query(
                AggregateQuery(
                    "q",
                    AggregateSpec(kind, argument, "q"),
                    Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
                )
            )
        )
        explainer = Explainer(rex.database(), question, ATTRS)
        m_indexed = explainer.explanation_table("indexed")
        m_exact = explainer.explanation_table("exact")
        assert m_indexed.q_original == m_exact.q_original
        fast, slow = observed_columns(m_indexed), observed_columns(m_exact)
        assert set(fast) <= set(slow)
        for key in fast:
            assert fast[key] == slow[key], key

    def test_non_numeric_aggregate_matches_exact(self):
        """max over a string column: u − v does not subtract, so the
        cube's μ_interv is NULL, and program P's value replaces it."""
        question = parse_question("high", "q", ["q := max(Author.name)"])
        explainer = Explainer(rex.database(), question, ["Publication.year"])
        m_indexed = explainer.explanation_table("indexed")
        m_exact = explainer.explanation_table("exact")
        for column in (MU_INTERV, MU_AGGR, "v_q"):
            fast = degree_map(m_indexed, column)
            assert fast == degree_map(m_exact, column), column

    def test_observed_columns_equal_exact_on_dblp(self):
        """On ``repro ask``'s DBLP question.  exact's v_j and μ_aggr are
        naive's: one per-candidate loop builds both tables and differs
        only in μ_interv, so the fast naive table stands in."""
        db, question, attrs = dblp_case()
        explainer = Explainer(db, question, list(attrs))
        m_indexed = explainer.explanation_table("indexed")
        m_naive = explainer.explanation_table("naive", check_additivity=False)
        assert m_indexed.q_original == m_naive.q_original
        fast, slow = observed_columns(m_indexed), observed_columns(m_naive)
        assert set(fast) <= set(slow)
        for key in fast:
            assert fast[key] == slow[key], key

    def test_support_threshold_filters_candidates(self):
        # Three of the eleven candidates have no SIGMOD publication.
        explainer = Explainer(
            rex.database(), sigmod_question(), ATTRS, support_threshold=1
        )
        keys = {
            method: set(degree_map(explainer.explanation_table(method), MU_INTERV))
            for method in ("indexed", "exact")
        }
        assert len(keys["indexed"]) == 8
        assert keys["indexed"] == keys["exact"]

    def test_support_threshold_on_dblp(self):
        db, question, attrs = dblp_case()
        explainer = Explainer(db, question, list(attrs), support_threshold=5)
        m_indexed = explainer.explanation_table("indexed")
        m_exact = explainer.explanation_table("exact")
        m_cube = explainer.explanation_table("cube", check_additivity=False)
        assert len(m_indexed) == 20
        assert m_indexed.content_fingerprint() == m_exact.content_fingerprint()
        assert set(degree_map(m_indexed, MU_AGGR)) == set(
            degree_map(m_cube, MU_AGGR)
        )
