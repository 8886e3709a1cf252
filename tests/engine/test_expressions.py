"""Tests for the expression AST."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expressions import (
    And,
    Arithmetic,
    Col,
    Comparison,
    Const,
    Not,
    Or,
    Unary,
    conj,
    disj,
    exp,
    lift,
    log,
    neg,
)
from repro.engine.types import NULL
from repro.errors import QueryError


ENV = {"x": 10, "y": 4, "s": "abc", "n": NULL}


class TestBasics:
    def test_const(self):
        assert Const(5).evaluate({}) == 5
        assert Const("a").columns() == ()

    def test_col(self):
        assert Col("x").evaluate(ENV) == 10
        assert Col("x").columns() == ("x",)

    def test_unknown_column_raises(self):
        with pytest.raises(QueryError, match="unknown column"):
            Col("zzz").evaluate(ENV)

    def test_lift(self):
        assert isinstance(lift(3), Const)
        c = Col("x")
        assert lift(c) is c


class TestArithmetic:
    def test_operators(self):
        assert (Col("x") + Col("y")).evaluate(ENV) == 14
        assert (Col("x") - 1).evaluate(ENV) == 9
        assert (Col("x") * 2).evaluate(ENV) == 20
        assert (Col("x") / Col("y")).evaluate(ENV) == 2.5

    def test_reflected_operators(self):
        assert (1 + Col("y")).evaluate(ENV) == 5
        assert (20 - Col("x")).evaluate(ENV) == 10
        assert (3 * Col("y")).evaluate(ENV) == 12
        assert (40 / Col("y")).evaluate(ENV) == 10

    def test_null_propagates(self):
        assert (Col("n") + 1).evaluate(ENV) is NULL
        assert (1 / Col("n")).evaluate(ENV) is NULL

    def test_division_by_zero_positive(self):
        assert (Col("x") / 0).evaluate(ENV) == math.inf

    def test_division_by_zero_negative(self):
        assert (neg(Col("x")) / 0).evaluate(ENV) == -math.inf

    def test_zero_over_zero_is_null(self):
        assert (Const(0) / Const(0)).evaluate({}) is NULL

    def test_non_numeric_raises(self):
        with pytest.raises(QueryError):
            (Col("s") + 1).evaluate(ENV)

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Arithmetic("%", Const(1), Const(2))

    def test_columns_deduplicated(self):
        expr = (Col("x") + Col("y")) * Col("x")
        assert expr.columns() == ("x", "y")

    def test_str(self):
        assert str(Col("x") + 1) == "(x + 1)"


class TestUnary:
    def test_neg_abs(self):
        assert neg(Col("x")).evaluate(ENV) == -10
        assert Unary("abs", Const(-3)).evaluate({}) == 3

    def test_log_exp(self):
        assert log(Const(math.e)).evaluate({}) == pytest.approx(1.0)
        assert exp(Const(0)).evaluate({}) == 1.0

    def test_log_nonpositive_is_null(self):
        assert log(Const(0)).evaluate({}) is NULL
        assert log(Const(-1)).evaluate({}) is NULL

    def test_null_propagates(self):
        assert neg(Col("n")).evaluate(ENV) is NULL

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError):
            Unary("sqrt", Const(4))

    def test_non_numeric_raises(self):
        with pytest.raises(QueryError):
            neg(Col("s")).evaluate(ENV)


class TestComparison:
    def test_all_operators(self):
        assert Col("x").eq(10).evaluate(ENV)
        assert Col("x").ne(9).evaluate(ENV)
        assert Col("y").lt(5).evaluate(ENV)
        assert Col("y").le(4).evaluate(ENV)
        assert Col("x").gt(9).evaluate(ENV)
        assert Col("x").ge(10).evaluate(ENV)

    def test_null_comparisons_false(self):
        assert not Col("n").eq(1).evaluate(ENV)
        assert not Col("n").ne(1).evaluate(ENV)
        assert not Col("n").lt(1).evaluate(ENV)

    def test_string_comparison(self):
        assert Col("s").eq("abc").evaluate(ENV)
        assert Col("s").lt("abd").evaluate(ENV)

    def test_invalid_operator(self):
        with pytest.raises(QueryError):
            Comparison("~=", Col("x"), Const(1))

    def test_bang_eq_alias(self):
        assert Comparison("!=", Col("x"), Const(9)).evaluate(ENV)


class TestBoolean:
    def test_and(self):
        expr = And((Col("x").eq(10), Col("y").eq(4)))
        assert expr.evaluate(ENV)
        assert not And((Col("x").eq(10), Col("y").eq(5))).evaluate(ENV)

    def test_empty_and_is_true(self):
        assert And(()).evaluate(ENV)

    def test_or(self):
        assert Or((Col("x").eq(0), Col("y").eq(4))).evaluate(ENV)
        assert not Or((Col("x").eq(0), Col("y").eq(0))).evaluate(ENV)

    def test_empty_or_is_false(self):
        assert not Or(()).evaluate(ENV)

    def test_not(self):
        assert Not(Col("x").eq(0)).evaluate(ENV)

    def test_conj_flattens(self):
        nested = conj(conj(Col("x").eq(10), Col("y").eq(4)), Col("s").eq("abc"))
        assert isinstance(nested, And)
        assert len(nested.operands) == 3

    def test_disj_flattens(self):
        nested = disj(disj(Col("x").eq(0), Col("y").eq(4)), Col("s").eq("?"))
        assert isinstance(nested, Or)
        assert len(nested.operands) == 3

    def test_conj_single_passthrough(self):
        single = Col("x").eq(10)
        assert conj(single) is single

    def test_boolean_columns(self):
        expr = And((Col("x").eq(1), Col("y").eq(2), Col("x").eq(3)))
        assert expr.columns() == ("x", "y")

    def test_str_rendering(self):
        assert "AND" in str(And((Col("x").eq(1), Col("y").eq(2))))
        assert "OR" in str(Or((Col("x").eq(1), Col("y").eq(2))))
        assert str(And(())) == "TRUE"
        assert str(Or(())) == "FALSE"


class TestCompilePredicate:
    def _check(self, expr, columns, rows):
        """Compiled result must equal interpreted result on every row."""
        from support.expressions import compile_predicate

        fn = compile_predicate(expr, columns)
        for row in rows:
            env = dict(zip(columns, row))
            assert fn(row) == expr.evaluate(env), (expr, row)

    def test_simple_comparison(self):
        rows = [(1, "a"), (2, "b"), (NULL, "c")]
        self._check(Col("x").eq(1), ["x", "s"], rows)
        self._check(Col("x").ge(2), ["x", "s"], rows)
        self._check(Col("s").eq("b"), ["x", "s"], rows)

    def test_reversed_and_col_col(self):
        rows = [(1, 1), (1, 2), (3, 2)]
        self._check(Comparison("=", Const(1), Col("x")), ["x", "y"], rows)
        self._check(Comparison("<", Col("x"), Col("y")), ["x", "y"], rows)

    def test_connectives(self):
        rows = [(1, "a"), (2, "b"), (2, "a")]
        expr = conj(Col("x").eq(2), Col("s").eq("a"))
        self._check(expr, ["x", "s"], rows)
        expr = disj(Col("x").eq(1), Col("s").eq("b"))
        self._check(expr, ["x", "s"], rows)
        self._check(Not(Col("x").eq(2)), ["x", "s"], rows)
        self._check(And(()), ["x", "s"], rows)
        self._check(Or(()), ["x", "s"], rows)

    def test_fallback_for_arithmetic_comparisons(self):
        rows = [(1, 2), (3, 1)]
        expr = Comparison("<", Col("x") + 1, Col("y"))
        self._check(expr, ["x", "y"], rows)

    def test_unknown_column_raises(self):
        from support.expressions import compile_predicate

        with pytest.raises(QueryError, match="unknown column"):
            compile_predicate(Col("zzz").eq(1), ["x"])
        with pytest.raises(QueryError, match="unknown column"):
            compile_predicate(
                Comparison("=", Const(1), Col("zzz")), ["x"]
            )


_cells = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.5, 2.5, 1e-300]),
    st.just(NULL),
    st.just("s"),
)
_leaves = st.one_of(st.sampled_from(["a", "b"]).map(Col), _cells.map(Const))
_arithmetic = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Arithmetic, st.sampled_from(["+", "-", "*", "/"]), inner, inner),
        st.builds(Unary, st.sampled_from(["neg", "log", "abs"]), inner),
    ),
    max_leaves=6,
)


def _outcome(thunk):
    try:
        return ("ok", [repr(v) for v in thunk()])
    except QueryError:
        return ("QueryError",)


@settings(max_examples=300)
@given(
    expr=_arithmetic,
    rows=st.lists(st.tuples(_cells, _cells), max_size=8),
)
def test_column_at_a_time_matches_row_wise(expr, rows):
    """NULL propagation, ±inf on x/0, NULL on 0/0 and the non-numeric
    QueryError are the same whether E runs per row or per column."""
    columns = {"a": [r[0] for r in rows], "b": [r[1] for r in rows]}
    by_rows = _outcome(
        lambda: [expr.evaluate({"a": a, "b": b}) for a, b in rows]
    )
    by_columns = _outcome(lambda: expr.evaluate_columns(columns, len(rows)))
    assert by_columns == by_rows


def test_evaluate_columns_unknown_column():
    with pytest.raises(QueryError, match="unknown column"):
        (Col("a") + 1).evaluate_columns({"b": [1]}, 1)
