"""Behavioral tests for the SQLite execution backend."""

import pytest

from repro import Explainer
from repro.backends import SQLiteBackend
from repro.core import (
    AggregateQuery,
    UserQuestion,
    build_explanation_table,
    ratio_query,
    single_query,
)
from repro.core.cube_algorithm import MU_AGGR, MU_INTERV
from repro.datasets import running_example as rex
from repro.engine import Col, Comparison, Const, count_distinct, count_star
from repro.engine.database import Database
from repro.engine.schema import single_table_schema
from repro.engine.types import DUMMY, NULL
from repro.errors import ExplanationError, NotAdditiveError, QueryError

ATTRS = ["Author.name", "Publication.year"]


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


def tiny_db(rows):
    schema = single_table_schema(
        "T", ["id", "g", "cls"], ["id"], dtypes={"id": "int"}
    )
    return Database(schema, {"T": rows})


def tiny_question():
    q1 = AggregateQuery(
        "q1", count_star("q1"), Comparison("=", Col("T.cls"), Const("a"))
    )
    q2 = AggregateQuery("q2", count_star("q2"))
    return UserQuestion.high(ratio_query(q1, q2, epsilon=0.001))


class TestRunningExample:
    def test_rows_identical_to_memory(self):
        db = rex.database()
        mem = build_explanation_table(db, sigmod_question(), ATTRS)
        sql = build_explanation_table(
            db, sigmod_question(), ATTRS, backend="sqlite"
        )
        assert list(sql.table.columns) == list(mem.table.columns)
        assert sorted(sql.table.rows(), key=str) == sorted(
            mem.table.rows(), key=str
        )
        assert sql.q_original == mem.q_original

    def test_backend_instance_accepted(self):
        db = rex.database()
        m = build_explanation_table(
            db, sigmod_question(), ATTRS, backend=SQLiteBackend()
        )
        assert len(m) == 8

    def test_explainer_ranking_matches_memory(self):
        db = rex.database()
        mem = Explainer(db, sigmod_question(), ATTRS).top(5)
        sql = Explainer(db, sigmod_question(), ATTRS, backend="sqlite").top(5)
        assert [(r.explanation, r.degree) for r in sql] == [
            (r.explanation, r.degree) for r in mem
        ]

    def test_grand_total_row_is_all_dummy(self):
        db = rex.database()
        m = build_explanation_table(
            db, sigmod_question(), ATTRS, backend="sqlite"
        )
        attr_pos = m.table.positions(ATTRS)
        totals = [
            row
            for row in m.table.rows()
            if all(row[p] is DUMMY for p in attr_pos)
        ]
        assert len(totals) == 1

    def test_counts_stay_integers(self):
        db = rex.database()
        m = build_explanation_table(
            db, sigmod_question(), ATTRS, backend="sqlite"
        )
        v = m.table.position("v_q")
        assert all(type(row[v]) is int for row in m.table.rows())

    def test_equal_attribute_values_are_one_object(self):
        """*M* holds each distinct attribute value once, as the in-memory
        cube's keys share U's: the cache sizes an attribute column by its
        references alone."""
        db = rex.database()
        m = build_explanation_table(
            db, sigmod_question(), ATTRS, backend="sqlite"
        )
        for attr in ATTRS:
            column = m.table.column(attr)
            first = {}
            assert all(first.setdefault(v, v) is v for v in column)
            assert len(first) < len(column)


class TestGuards:
    def test_non_additive_query_rejected(self):
        db = rex.database()
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        with pytest.raises(NotAdditiveError):
            build_explanation_table(db, question, ATTRS, backend="sqlite")

    def test_additivity_check_can_be_skipped(self):
        db = rex.database()
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        m = build_explanation_table(
            db, question, ATTRS, backend="sqlite", check_additivity=False
        )
        assert len(m) > 0

    def test_null_dimension_rejected(self):
        db = tiny_db([(1, "x", "a"), (2, NULL, "b")])
        with pytest.raises(QueryError, match="contains NULL"):
            build_explanation_table(
                db, tiny_question(), ["T.g"], backend="sqlite"
            )

    def test_dummy_sentinel_data_rejected(self):
        db = tiny_db([(1, "x", "a"), (2, "__DUMMY__", "b")])
        with pytest.raises(QueryError, match="reserved"):
            build_explanation_table(
                db, tiny_question(), ["T.g"], backend="sqlite"
            )

    def test_unqualified_attribute_rejected(self):
        db = tiny_db([(1, "x", "a")])
        with pytest.raises(QueryError, match="qualified"):
            build_explanation_table(
                db, tiny_question(), ["g"], backend="sqlite"
            )

    def test_internal_name_collision_rejected(self):
        schema = single_table_schema("__U", ["id", "g"], ["id"])
        db = Database(schema, {"__U": [(1, "x")]})
        q = AggregateQuery("q", count_star("q"))
        question = UserQuestion.high(single_query(q))
        with pytest.raises(QueryError, match="collide"):
            build_explanation_table(
                db, question, ["__U.g"], backend="sqlite"
            )

    def test_non_cube_method_rejected_on_sql_backend(self):
        db = rex.database()
        explainer = Explainer(db, sigmod_question(), ATTRS, backend="sqlite")
        with pytest.raises(ExplanationError, match="in-memory"):
            explainer.explanation_table("exact")


class TestSemantics:
    def test_null_values_ignored_by_count_distinct(self):
        # Engine NULL in a *measure* column must become SQL NULL, which
        # COUNT(DISTINCT ...) ignores in both substrates.
        db = tiny_db([(1, "x", "a"), (2, "x", NULL), (3, "y", "a")])
        q = AggregateQuery("q", count_distinct("T.cls", "q"))
        question = UserQuestion.high(single_query(q))
        mem = build_explanation_table(
            db, question, ["T.g"], check_additivity=False
        )
        sql = build_explanation_table(
            db, question, ["T.g"], backend="sqlite", check_additivity=False
        )
        assert sorted(sql.table.rows(), key=str) == sorted(
            mem.table.rows(), key=str
        )

    def test_support_threshold_filters(self):
        rows = [(i, "g1" if i % 4 else "g2", "a" if i % 2 else "b")
                for i in range(40)]
        db = tiny_db(rows)
        question = tiny_question()
        mem = build_explanation_table(
            db, question, ["T.g"], support_threshold=15
        )
        sql = build_explanation_table(
            db, question, ["T.g"], backend="sqlite", support_threshold=15
        )
        assert sorted(sql.table.rows(), key=str) == sorted(
            mem.table.rows(), key=str
        )
        assert len(sql) < len(
            build_explanation_table(db, question, ["T.g"], backend="sqlite")
        )

    def test_mu_columns_match_memory_exactly(self):
        rows = [(i, f"g{i % 3}", "a" if i % 5 else "b") for i in range(60)]
        db = tiny_db(rows)
        question = tiny_question()
        mem = build_explanation_table(db, question, ["T.g"])
        sql = build_explanation_table(db, question, ["T.g"], backend="sqlite")
        for table in (mem, sql):
            assert MU_INTERV in table.table.columns
            assert MU_AGGR in table.table.columns
        assert sorted(sql.table.rows(), key=str) == sorted(
            mem.table.rows(), key=str
        )


class TestStorageRoundTrip:
    def test_backend_parity_survives_csv_round_trip(self, tmp_path):
        # The CSV round-trip of engine/storage.py is the on-disk
        # interchange format; a reloaded database must produce the same
        # in-database explanation table as the original.
        from repro.engine.storage import save_database
        from support.fixtures import load_database

        db = rex.database()
        save_database(db, tmp_path / "rex")
        reloaded = load_database(tmp_path / "rex")
        original = build_explanation_table(
            db, sigmod_question(), ATTRS, backend="sqlite"
        )
        round_tripped = build_explanation_table(
            reloaded, sigmod_question(), ATTRS, backend="sqlite"
        )
        assert sorted(round_tripped.table.rows(), key=str) == sorted(
            original.table.rows(), key=str
        )
