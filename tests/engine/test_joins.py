"""Tests for the join algorithms."""

import pytest

from repro.engine.joins import full_outer_join, full_outer_join_many
from repro.engine.table import Table
from repro.engine.types import DUMMY, NULL
from repro.errors import QueryError


@pytest.fixture
def authors():
    return Table(["id", "name"], [("A1", "JG"), ("A2", "RR"), ("A3", "CM")])


@pytest.fixture
def authored():
    return Table(
        ["aid", "pubid"],
        [("A1", "P1"), ("A2", "P1"), ("A1", "P2"), ("A9", "P9")],
    )


class TestFullOuterJoin:
    def test_matched_and_unmatched(self):
        left = Table(["k", "v1"], [("a", 1), ("b", 2)])
        right = Table(["k", "v2"], [("b", 20), ("c", 30)])
        out = full_outer_join(left, right, ["k"])
        rows = {r[0]: r for r in out.rows()}
        assert rows["a"] == ("a", 1, NULL)
        assert rows["b"] == ("b", 2, 20)
        assert rows["c"] == ("c", NULL, 30)

    def test_custom_fill(self):
        left = Table(["k", "v1"], [("a", 1)])
        right = Table(["k", "v2"], [("b", 2)])
        out = full_outer_join(left, right, ["k"], fill=0)
        rows = {r[0]: r for r in out.rows()}
        assert rows["a"] == ("a", 1, 0) and rows["b"] == ("b", 0, 2)

    def test_null_keys_emit_unmatched(self):
        left = Table(["k", "v1"], [(NULL, 1)])
        right = Table(["k", "v2"], [(NULL, 2)])
        out = full_outer_join(left, right, ["k"])
        assert len(out) == 2  # nulls never match each other

    def test_dummy_keys_match(self):
        left = Table(["k", "v1"], [(DUMMY, 1)])
        right = Table(["k", "v2"], [(DUMMY, 2)])
        out = full_outer_join(left, right, ["k"])
        assert out.rows() == [(DUMMY, 1, 2)]

    def test_value_column_clash_rejected(self):
        left = Table(["k", "v"], [("a", 1)])
        right = Table(["k", "v"], [("a", 2)])
        with pytest.raises(QueryError):
            full_outer_join(left, right, ["k"])

    def test_one_to_many(self):
        left = Table(["k", "v1"], [("a", 1)])
        right = Table(["k", "v2"], [("a", 10), ("a", 20)])
        out = full_outer_join(left, right, ["k"])
        assert len(out) == 2

    def test_many_chain(self):
        t1 = Table(["k", "a"], [("x", 1)])
        t2 = Table(["k", "b"], [("y", 2)])
        t3 = Table(["k", "c"], [("x", 3)])
        out = full_outer_join_many([t1, t2, t3], ["k"], fill=0)
        rows = {r[0]: r for r in out.rows()}
        assert rows["x"] == ("x", 1, 0, 3)
        assert rows["y"] == ("y", 0, 2, 0)

    def test_many_requires_input(self):
        with pytest.raises(QueryError):
            full_outer_join_many([], ["k"])
