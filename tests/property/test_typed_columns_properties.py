"""Typed columns of *M* against a list-only, row-by-row oracle.

:func:`finalize_explanation_table` types each ``v_j`` and μ column of
*M*: ``array('q')`` when every cell is an int (not a bool) that fits in
int64, ``array('d')`` when every cell is a float, and a list otherwise.
Readers of *M* then skip their per-cell scans.  The oracle fills, filters
and evaluates μ one row at a time over plain lists, as the step is
defined; the two tables must agree on the ``repr`` of every cell and on
the content fingerprint.  Ints up to ±2**70, bools, NULL, NaN, ±inf,
−0.0 and columns mixing ints and floats are drawn, with and without a
support threshold.  :class:`BestFirstOrder` must walk a typed degree
column in the order it walks the same values held in a list.
"""

import math
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cube_algorithm import (
    MU_AGGR,
    MU_INTERV,
    ExplanationTable,
    finalize_explanation_table,
)
from repro.core.numquery import AggregateQuery, NumericalQuery
from repro.core.question import UserQuestion
from repro.core.topk import BestFirstOrder
from repro.engine.aggregates import AggregateSpec
from repro.engine.expressions import Arithmetic, Col, Const
from repro.engine.table import Table
from repro.engine.types import DUMMY, NULL, is_null

ATTRIBUTES = ("T.g", "T.h")
NAMES = ("q0", "q1")

ints = st.one_of(st.integers(-5, 5), st.integers(-(2**70), 2**70))
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -2.5, 1e-4, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
anything = st.one_of(ints, floats, st.booleans(), st.just(NULL))
#: A column of one kind (so that it types) or of any mix.
column_cells = st.sampled_from([ints, floats, st.one_of(ints, floats), anything])
attribute_values = st.sampled_from(["x", "y", DUMMY])


def _leaves():
    return st.one_of(
        st.sampled_from(NAMES).map(Col),
        st.sampled_from([0, 1, -0.0, 1e-4, 2.5]).map(Const),
    )


expressions = st.recursive(
    _leaves(),
    lambda inner: st.builds(Arithmetic, st.sampled_from("+-*/"), inner, inner),
    max_leaves=4,
).filter(lambda e: set(e.columns()) == set(NAMES))


@st.composite
def inputs(draw):
    n = draw(st.integers(0, 10))
    expression = draw(expressions)
    kinds = [draw(st.sampled_from(["count_star", "sum"])) for _ in NAMES]
    aggregates = tuple(
        AggregateQuery(
            name, AggregateSpec(kind, None if kind == "count_star" else "T.x", name)
        )
        for name, kind in zip(NAMES, kinds)
    )
    query = NumericalQuery(aggregates, expression)
    question = draw(
        st.sampled_from([UserQuestion.high(query), UserQuestion.low(query)])
    )
    columns = [draw(st.lists(attribute_values, min_size=n, max_size=n)) for _ in ATTRIBUTES]
    for _ in NAMES:
        cells = draw(column_cells)
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    q_original = {name: draw(anything) for name in NAMES}
    support = draw(st.one_of(st.none(), st.integers(-3, 3), st.just(0.5)))
    return question, columns, q_original, support


def _oracle(question, columns, q_original, support):
    """*M*'s rows, one row at a time over lists."""
    query = question.query
    defaults = [q.aggregate.default_value for q in query.aggregates]
    out = []
    for row in zip(*columns):
        attrs = list(row[: len(ATTRIBUTES)])
        values = [d if is_null(v) else v for v, d in zip(row[len(ATTRIBUTES):], defaults)]
        if support is not None and not any(
            not is_null(v) and v >= support for v in values
        ):
            continue
        remainders = [
            NULL if is_null(q_original[name]) or is_null(v) else q_original[name] - v
            for name, v in zip(NAMES, values)
        ]
        interv = query.expression.evaluate(dict(zip(NAMES, remainders)))
        aggr = query.expression.evaluate(dict(zip(NAMES, values)))
        out.append(
            tuple(attrs)
            + tuple(values)
            + (
                interv if is_null(interv) else question.intervention_sign * interv,
                aggr if is_null(aggr) else question.aggravation_sign * aggr,
            )
        )
    return out


def _expected_typecode(cells):
    """The typecode the typing rule gives a non-empty column, or None."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        return "d"
    if kinds == {int} and all(-(2**63) <= v < 2**63 for v in cells):
        return "q"
    return None


@settings(max_examples=400, deadline=None)
@given(data=inputs())
def test_typed_table_matches_list_oracle(data):
    question, columns, q_original, support = data
    names = list(ATTRIBUTES) + [f"v_{name}" for name in NAMES]
    n = len(columns[0])
    joined = Table(names, list(zip(*columns)) if n else [])
    m = finalize_explanation_table(
        joined, question, ATTRIBUTES, dict(q_original), support_threshold=support
    )
    expected = _oracle(question, columns, q_original, support)

    assert [tuple(map(repr, row)) for row in m.table.rows()] == [
        tuple(map(repr, row)) for row in expected
    ]
    oracle = ExplanationTable(
        table=Table(names + [MU_INTERV, MU_AGGR], expected),
        attributes=ATTRIBUTES,
        aggregate_names=NAMES,
        q_original=dict(q_original),
    )
    assert m.content_fingerprint() == oracle.content_fingerprint()

    for i, column in enumerate(m.table.column_arrays()[len(ATTRIBUTES):]):
        cells = [row[len(ATTRIBUTES) + i] for row in expected]
        if cells:
            typecode = column.typecode if isinstance(column, array) else None
            assert typecode == _expected_typecode(cells)


@settings(max_examples=400, deadline=None)
@given(
    degrees=st.one_of(
        st.lists(st.one_of(st.integers(-5, 5), st.integers(-(2**63), 2**63 - 1)), max_size=12),
        st.lists(floats, max_size=12),
    ),
    data=st.data(),
    minimality=st.sampled_from(["general", "specific"]),
)
def test_typed_degree_walks_as_a_list(degrees, data, minimality):
    typecode = _expected_typecode(degrees)
    if typecode is None:
        return  # an empty column: not typed
    n = len(degrees)
    attr = [
        (i, data.draw(st.lists(attribute_values, min_size=n, max_size=n)))
        for i in range(len(ATTRIBUTES))
    ]
    typed = BestFirstOrder(array(typecode, degrees), attr, minimality)
    listed = BestFirstOrder(list(degrees), attr, minimality)
    assert list(typed) == list(listed)

