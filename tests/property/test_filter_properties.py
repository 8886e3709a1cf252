"""The column-at-a-time filter kernel against the row-wise oracle.

``select_positions`` (what :meth:`Table.filter` runs) must keep exactly
the rows, in the same order, that :func:`compile_predicate` accepts
row by row: NULL compares false, ``Not`` is two-valued, an empty
``And`` is true and an empty ``Or`` false.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expressions import (
    COMPARISON_OPS,
    And,
    Col,
    Comparison,
    Const,
    Not,
    Or,
    select_positions,
)
from repro.engine.table import Table
from repro.engine.types import NULL

from support.expressions import compile_predicate


COLUMNS = ("a", "b", "c")

#: int, float, bool and str mixed in one column, plus NULL.
values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1.5, 0.0, 2.0, 2.5]),
    st.booleans(),
    st.sampled_from(["", "a", "b", "2"]),
    st.just(NULL),
)

rows = st.lists(st.tuples(*(values for _ in COLUMNS)), max_size=30)
columns = st.sampled_from(COLUMNS).map(Col)
constants = values.map(Const)
comparisons = st.builds(
    Comparison,
    st.sampled_from(COMPARISON_OPS),
    st.one_of(columns, constants),
    st.one_of(columns, constants),
)
#: A bare column or constant is a predicate too: the row-wise path
#: evaluates it on an environment and takes its truth value.
predicates = st.recursive(
    st.one_of(comparisons, columns, constants),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda ops: And(tuple(ops))),
        st.lists(inner, max_size=3).map(lambda ops: Or(tuple(ops))),
        inner.map(Not),
    ),
    max_leaves=8,
)


def row_wise(table, predicate):
    """The oracle: ``compile_predicate`` applied to every row."""
    fn = compile_predicate(predicate, COLUMNS)
    return [i for i, row in enumerate(table.rows()) if fn(row)]


@settings(max_examples=300)
@given(data=rows, predicate=predicates)
def test_column_at_a_time_matches_row_wise(data, predicate):
    table = Table(COLUMNS, data)
    got = select_positions(predicate, table.column, len(table))
    assert got == row_wise(table, predicate)
    assert table.filter(predicate).rows() == [data[i] for i in got]


@settings(max_examples=100)
@given(data=rows, predicate=predicates)
def test_filter_of_a_selection_matches_row_wise(data, predicate):
    """A filter over an earlier selection sees that selection's rows."""
    table = Table(COLUMNS, data).take(range(0, len(data), 2))
    assert table.filter(predicate).rows() == [
        table.rows()[i] for i in row_wise(table, predicate)
    ]


@settings(max_examples=200)
@given(
    data=st.lists(st.tuples(*(values for _ in COLUMNS)), max_size=30).map(
        lambda rows: rows + [(NULL, NULL, NULL)]
    ),
    column=columns,
    constant=values.filter(lambda v: v is not NULL),
    constant_first=st.booleans(),
)
def test_equality_against_a_constant_over_null_cells(
    data, column, constant, constant_first
):
    """``=`` against a non-NULL constant is plain ``==`` in the kernel;
    every drawn table holds NULL cells, which must never match."""
    operands = (Const(constant), column) if constant_first else (column, Const(constant))
    predicate = Comparison("=", *operands)
    table = Table(COLUMNS, data)
    got = select_positions(predicate, table.column, len(table))
    assert got == row_wise(table, predicate)
    assert len(data) - 1 not in got
