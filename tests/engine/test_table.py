"""Tests for the Table result type."""

import pytest

from repro.engine.expressions import Col
from repro.engine.relation import Relation
from repro.engine.schema import make_schema
from repro.engine.table import Table
from repro.engine.types import NULL
from repro.errors import QueryError


@pytest.fixture
def table():
    return Table(
        ["name", "year", "venue"],
        [
            ("JG", 2001, "SIGMOD"),
            ("RR", 2001, "SIGMOD"),
            ("JG", 2011, "VLDB"),
        ],
    )


class TestConstruction:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(QueryError):
            Table(["a", "a"], [])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(QueryError):
            Table(["a", "b"], [(1,)])

    def test_from_relation_unqualified(self):
        rel = Relation(make_schema("R", ["a", "b"], ["a"]), [(1, 2)])
        t = Table.from_relation(rel)
        assert t.columns == ("a", "b") and len(t) == 1

    def test_from_relation_qualified(self):
        rel = Relation(make_schema("R", ["a", "b"], ["a"]), [(1, 2)])
        t = Table.from_relation(rel, qualify=True)
        assert t.columns == ("R.a", "R.b")

    def test_empty(self):
        t = Table.empty(["a"])
        assert len(t) == 0

    def test_position_errors(self, table):
        with pytest.raises(QueryError, match="no column"):
            table.position("zzz")


class TestTransformations:
    def test_filter(self, table):
        out = table.filter(Col("year").eq(2001))
        assert len(out) == 2

    def test_filter_unknown_column_raises(self, table):
        with pytest.raises(QueryError):
            table.filter(Col("zzz").eq(1))

    def test_filter_rows_callable(self, table):
        out = table.filter_rows(lambda env: env["name"] == "JG")
        assert len(out) == 2

    def test_project_bag(self, table):
        out = table.project(["year"])
        assert len(out) == 3  # duplicates kept

    def test_project_distinct(self, table):
        out = table.project(["year"], distinct=True)
        assert sorted(r[0] for r in out.rows()) == [2001, 2011]

    def test_rename(self, table):
        out = table.rename({"name": "author"})
        assert out.columns == ("author", "year", "venue")

    def test_extend(self, table):
        out = table.extend("next_year", Col("year") + 1)
        assert out.rows()[0][-1] == 2002

    def test_extend_duplicate_rejected(self, table):
        with pytest.raises(QueryError):
            table.extend("year", Col("year"))

    def test_distinct(self):
        t = Table(["a"], [(1,), (1,), (2,)])
        assert len(t.distinct()) == 2

    def test_union(self, table):
        out = table.union(table)
        assert len(out) == 6

    def test_union_incompatible(self, table):
        with pytest.raises(QueryError):
            table.union(Table(["x"], []))

    def test_difference(self, table):
        minus = Table(table.columns, [("JG", 2001, "SIGMOD")])
        out = table.difference(minus)
        assert len(out) == 2

    def test_intersect(self, table):
        other = Table(table.columns, [("JG", 2001, "SIGMOD"), ("??", 0, "?")])
        out = table.intersect(other)
        assert out.rows() == [("JG", 2001, "SIGMOD")]

    def test_order_by(self, table):
        out = table.order_by(["year", "name"])
        assert [r[1] for r in out.rows()] == [2001, 2001, 2011]
        desc = table.order_by(["year"], descending=True)
        assert desc.rows()[0][1] == 2011

    def test_limit(self, table):
        assert len(table.limit(2)) == 2
        assert len(table.limit(99)) == 3


class TestAccessors:
    def test_environment(self, table):
        env = table.environment(table.rows()[0])
        assert set(env) == {"name", "year", "venue"}

    def test_iter_environments(self, table):
        envs = list(table.iter_environments())
        assert len(envs) == 3 and all("year" in e for e in envs)

    def test_index_positions(self, table):
        index = table.index_positions(["year"])
        assert index[(2001,)] == [0, 1]

    def test_index_skips_null(self):
        t = Table(["a"], [(NULL,), (1,)])
        assert set(t.index_positions(["a"])) == {(1,)}

    def test_column_values_distinct_nonnull(self):
        t = Table(["a"], [(1,), (1,), (NULL,), (2,)])
        assert sorted(t.column_values("a")) == [1, 2]

    def test_column_values_all(self):
        t = Table(["a"], [(1,), (1,)])
        assert t.column_values("a", distinct=False) == [1, 1]

    def test_row_set(self, table):
        assert ("JG", 2011, "VLDB") in table.row_set()

    def test_equality_is_order_insensitive(self):
        a = Table(["x"], [(1,), (2,)])
        b = Table(["x"], [(2,), (1,)])
        assert a == b
        assert a != Table(["x"], [(1,)])

    def test_sorted_rows_with_null(self):
        t = Table(["a"], [(2,), (NULL,), (1,)])
        assert t.sorted_rows()[0][0] is NULL

    def test_pretty(self, table):
        out = table.pretty()
        assert "name" in out and "'SIGMOD'" in out
