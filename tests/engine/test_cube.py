"""Tests for the WITH CUBE operator, including the paper's Example 4.1."""

import pytest

from repro.engine.aggregates import agg_sum, count_star
from repro.engine.expressions import Col
from repro.engine.cube import conditional_cube, cube, dummy_rewrite, grouping_sets
from repro.engine.table import Table
from repro.engine.types import DUMMY, NULL
from repro.errors import QueryError

from support.cube import cube_bruteforce


@pytest.fixture
def name_year():
    """The Example 4.1 input: (name, year) pairs of the running example."""
    return Table(
        ["name", "year"],
        [
            ("JG", 2001),
            ("JG", 2011),
            ("RR", 2001),
            ("RR", 2001),
            ("CM", 2001),
            ("CM", 2011),
        ],
    )


class TestGroupingSets:
    def test_count(self):
        assert len(grouping_sets(["a", "b", "c"])) == 8

    def test_order_full_first_empty_last(self):
        sets = grouping_sets(["a", "b"])
        assert sets[0] == ("a", "b")
        assert sets[-1] == ()

    def test_empty_dimensions(self):
        assert grouping_sets([]) == [()]


class TestCubeExample41:
    """The cube table printed in Example 4.1, row for row."""

    EXPECTED = {
        ("JG", 2001): 1,
        ("JG", 2011): 1,
        ("RR", 2001): 2,
        ("CM", 2001): 1,
        ("CM", 2011): 1,
        ("JG", None): 2,
        ("RR", None): 2,
        ("CM", None): 2,
        (None, 2001): 4,
        (None, 2011): 2,
        (None, None): 6,
    }

    def _normalize(self, table):
        out = {}
        for name, year, count in table.rows():
            key = (
                None if name is NULL else name,
                None if year is NULL else year,
            )
            out[key] = count
        return out

    def test_single_pass_cube(self, name_year):
        result = cube(name_year, ["name", "year"], [count_star("c")])
        assert self._normalize(result) == self.EXPECTED

    def test_bruteforce_cube(self, name_year):
        result = cube_bruteforce(name_year, ["name", "year"], [count_star("c")])
        assert self._normalize(result) == self.EXPECTED


class TestCubeProperties:
    def test_matches_bruteforce_on_random_ish_data(self):
        rows = [
            (chr(97 + i % 3), i % 4, i % 2, float(i))
            for i in range(40)
        ]
        t = Table(["a", "b", "c", "x"], rows)
        fast = cube(t, ["a", "b", "c"], [count_star("n"), agg_sum("x", "s")])
        slow = cube_bruteforce(
            t, ["a", "b", "c"], [count_star("n"), agg_sum("x", "s")]
        )
        assert fast == slow

    def test_grand_total_always_present(self):
        empty = Table(["a", "x"], [])
        result = cube(empty, ["a"], [count_star("c")])
        assert result.rows() == [(NULL, 0)]

    def test_row_count_bound(self, name_year):
        result = cube(name_year, ["name", "year"], [count_star("c")])
        # At most (|adom|+1) per dimension combinations.
        assert len(result) <= (3 + 1) * (2 + 1)

    def test_duplicate_dimensions_rejected(self, name_year):
        with pytest.raises(QueryError):
            cube(name_year, ["name", "name"], [count_star("c")])

    def test_alias_clash_rejected(self, name_year):
        with pytest.raises(QueryError):
            cube(name_year, ["name"], [count_star("name")])

    def test_duplicate_aliases_rejected(self, name_year):
        with pytest.raises(QueryError):
            cube(name_year, ["name"], [count_star("c"), count_star("c")])

    def test_multiple_aggregates(self, name_year):
        withx = name_year.extend("one", Col("year") - 2000)
        result = cube(withx, ["name"], [count_star("c"), agg_sum("one", "s")])
        by_name = {r[0] if r[0] is not NULL else None: (r[1], r[2]) for r in result.rows()}
        assert by_name["RR"] == (2, 2)
        assert by_name[None][0] == 6

    def test_zero_dimensions(self, name_year):
        result = cube(name_year, [], [count_star("c")])
        assert result.rows() == [(6,)]


class TestConditionalCube:
    """Aggregate j reads only source j, as a full outer join of the
    per-source cubes would."""

    def test_a_group_in_one_source_only(self, name_year):
        jg = name_year.filter(Col("name").eq("JG"))
        cm = name_year.filter(Col("name").eq("CM")).extend(
            "one", Col("year") - 2000
        )
        result = conditional_cube(
            [jg, cm],
            ["name"],
            [count_star("n_jg"), agg_sum("one", "s_cm")],
            dont_care=DUMMY,
        )
        assert result.rows() == [("JG", 2, NULL), ("CM", 0, 12), (DUMMY, 2, 12)]

    def test_grand_total_over_empty_sources(self, name_year):
        empty = name_year.filter(Col("name").eq("XX"))
        result = conditional_cube(
            [empty, empty], ["name"], [count_star("a"), count_star("b")]
        )
        assert result.rows() == [(NULL, 0, 0)]

    def test_at_least_one_aggregate(self, name_year):
        with pytest.raises(QueryError, match="at least one aggregate"):
            cube(name_year, ["name"], [])

    def test_one_source_per_aggregate(self, name_year):
        with pytest.raises(QueryError, match="need as many sources"):
            conditional_cube([name_year], ["name"], [count_star("a"), count_star("b")])


class TestDummyRewrite:
    def test_rewrite_and_undo(self, name_year):
        c = cube(name_year, ["name", "year"], [count_star("c")])
        rewritten = dummy_rewrite(c, ["name", "year"])
        assert all(
            v is not NULL
            for row in rewritten.rows()
            for v in row[:2]
        )
        restored = [
            tuple(NULL if v is DUMMY else v for v in row)
            for row in rewritten.rows()
        ]
        assert restored == c.rows()

    def test_rewrite_only_touches_dimensions(self):
        t = Table(["d", "v"], [(NULL, NULL)])
        rewritten = dummy_rewrite(t, ["d"])
        assert rewritten.rows() == [(DUMMY, NULL)]
