"""Column-at-a-time arithmetic against the per-row evaluator.

:meth:`Expression.evaluate_columns` maps the bare operator over two
columns of plain ints and floats, and :func:`_arithmetic` over any
other pair.  Either way it must give what :meth:`Expression.evaluate`
gives row by row, value, type and sign of zero alike, and raise where
that raises (an int too large for float division or conversion).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expressions import Arithmetic, Col, Const
from repro.engine.types import NULL

COLUMNS = ("a", "b", "c")
HUGE = 10**400

#: Plain numbers alone (the operator maps straight over them), or mixed
#: with bool and NULL (the per-cell path).
plain = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, math.inf, -math.inf, math.nan]),
    st.sampled_from([HUGE, -HUGE]),
)
mixed = st.one_of(plain, st.booleans(), st.just(NULL))


@st.composite
def tables(draw):
    cells = draw(st.sampled_from([plain, mixed]))
    n = draw(st.integers(0, 12))
    return {name: draw(st.lists(cells, min_size=n, max_size=n)) for name in COLUMNS}, n


leaves = st.one_of(
    st.sampled_from(COLUMNS).map(Col),
    st.sampled_from([0, 1, -0.0, 1e-4, 2.5]).map(Const),
)
expressions = st.recursive(
    leaves,
    lambda inner: st.builds(Arithmetic, st.sampled_from("+-*/"), inner, inner),
    max_leaves=4,
)


def _outcome(fn):
    try:
        return [repr(v) for v in fn()]
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc)


@settings(max_examples=500)
@given(table=tables(), expression=expressions)
def test_columns_match_rows(table, expression):
    columns, n = table
    rows = [
        {name: columns[name][i] for name in COLUMNS} for i in range(n)
    ]
    assert _outcome(lambda: expression.evaluate_columns(columns, n)) == _outcome(
        lambda: [expression.evaluate(env) for env in rows]
    )


def test_int_too_large_for_float_division_raises_both_ways():
    columns = {"a": [1, HUGE], "b": [3, 3], "c": [0, 0]}
    expression = Arithmetic("/", Col("a"), Col("b"))
    rows = [{"a": a, "b": b} for a, b in zip(columns["a"], columns["b"])]
    assert _outcome(lambda: expression.evaluate_columns(columns, 2)) is OverflowError
    assert _outcome(lambda: [expression.evaluate(env) for env in rows]) is OverflowError
