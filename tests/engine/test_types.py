"""Tests for the value domain and NULL/DUMMY semantics."""

import copy


from repro.engine.types import (
    DUMMY,
    NULL,
    is_dummy,
    is_missing,
    is_null,
    sort_key,
    sql_eq,
    sql_ge,
    sql_gt,
    sql_le,
    sql_lt,
    sql_ne,
)


class TestSingletons:
    def test_null_is_singleton(self):
        assert type(NULL)() is NULL

    def test_dummy_is_singleton(self):
        assert type(DUMMY)() is DUMMY

    def test_null_is_falsy(self):
        assert not NULL

    def test_copy_preserves_identity(self):
        assert copy.copy(NULL) is NULL
        assert copy.deepcopy(DUMMY) is DUMMY

    def test_repr(self):
        assert repr(NULL) == "NULL"
        assert repr(DUMMY) == "DUMMY"

    def test_predicates(self):
        assert is_null(NULL) and not is_null(DUMMY) and not is_null(0)
        assert is_dummy(DUMMY) and not is_dummy(NULL) and not is_dummy("")
        assert is_missing(NULL) and is_missing(DUMMY) and not is_missing(0)


class TestSqlComparators:
    def test_eq_basic(self):
        assert sql_eq(1, 1)
        assert not sql_eq(1, 2)
        assert sql_eq("a", "a")

    def test_null_never_equal(self):
        assert not sql_eq(NULL, NULL)
        assert not sql_eq(NULL, 1)
        assert not sql_eq("x", NULL)

    def test_dummy_equals_itself(self):
        assert DUMMY == DUMMY
        assert sql_eq(DUMMY, DUMMY)
        assert not sql_eq(DUMMY, "x")

    def test_lt_numbers_and_strings(self):
        assert sql_lt(1, 2)
        assert not sql_lt(2, 1)
        assert sql_lt("a", "b")

    def test_lt_null_is_false(self):
        assert not sql_lt(NULL, 1)
        assert not sql_lt(1, NULL)

    def test_dummy_is_maximal(self):
        assert sql_lt(10**9, DUMMY)
        assert sql_lt("zzz", DUMMY)
        assert not sql_lt(DUMMY, 10**9)
        assert not sql_lt(DUMMY, DUMMY)

    def test_le_ge_gt(self):
        assert sql_le(1, 1) and sql_le(1, 2) and not sql_le(2, 1)
        assert sql_gt(2, 1) and not sql_gt(1, 2)
        assert sql_ge(2, 2) and sql_ge(3, 2)

    def test_ne(self):
        assert sql_ne(1, 2)
        assert not sql_ne(1, 1)
        assert not sql_ne(NULL, 1)

    def test_mixed_types_via_sort_key(self):
        # Heterogeneous comparisons fall back to the total order.
        assert sql_lt(1, "a")  # numbers sort before strings


class TestSortKey:
    def test_null_sorts_first(self):
        values = ["b", 3, NULL, DUMMY, 1, "a"]
        ordered = sorted(values, key=sort_key)
        assert ordered[0] is NULL
        assert ordered[-1] is DUMMY

    def test_total_order_is_deterministic(self):
        values = [True, False, 2, 1.5, "x", NULL, DUMMY]
        a = sorted(values, key=sort_key)
        b = sorted(reversed(values), key=sort_key)
        assert [repr(v) for v in a] == [repr(v) for v in b]
