"""Equality selections read from postings against the scan and the rows.

On a table that keeps its indexes (a relation view, the memoized
``U(D)``), :meth:`Table.filter` seeds a top-level ``Col = Const``, or
the leading run of such conjuncts, from that value's posting.  It must
keep exactly the positions the same filter keeps on the same columns
without indexes, and those that :meth:`Expression.evaluate` accepts row
by row; where the row-wise path raises, the filter raises the same
exception.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cube_algorithm import build_explanation_table
from repro.datasets import dblp
from repro.engine.expressions import And, Arithmetic, Col, Comparison, Const, Not, Or
from repro.engine.table import Table
from repro.engine.types import NULL
from repro.engine.universal import universal_table
from repro.errors import QueryError

COLUMNS = ("a", "b", "c")
#: One NaN object in cells and constants alike: a posting (a dict) would
#: match it by identity, ``=`` never does.
NAN = float("nan")

cells = st.sampled_from(
    [0, 1, 1.0, -0.0, 2, 2.5, True, False, "a", "b", NAN, NULL, None]
)
rows = st.lists(st.tuples(cells, cells, cells), max_size=30)
columns = st.sampled_from(COLUMNS).map(Col)
constants = st.sampled_from([1, 1.0, True, NAN, "a", "b", NULL]).map(Const)
equalities = st.builds(
    lambda col, const, flip: Comparison("=", *((const, col) if flip else (col, const))),
    columns,
    constants,
    st.booleans(),
)
#: Against a number a range never raises (``sql_lt`` orders mixed types).
ranges = st.builds(
    Comparison,
    st.sampled_from(["<", "<=", ">", ">="]),
    columns,
    st.sampled_from([1, 1.0, 2.5]).map(Const),
)
#: Raises QueryError on a str or None cell: it must see the same rows.
arithmetic = columns.map(
    lambda col: Comparison(">", Arithmetic("+", col, Const(1)), Const(1))
)


@st.composite
def conjunctions(draw):
    """Equalities, then a range and/or an arithmetic test, then more."""
    before = draw(st.lists(equalities, max_size=2))
    middle = draw(st.lists(st.one_of(ranges, arithmetic), min_size=1, max_size=2))
    after = draw(st.lists(equalities, min_size=1, max_size=2))
    return And(tuple(before + middle + after))


equality_runs = st.lists(equalities, min_size=2, max_size=3).map(
    lambda ops: And(tuple(ops))
)
operands = st.one_of(equalities, equality_runs, conjunctions())
predicates = st.one_of(
    operands,
    st.lists(operands, min_size=1, max_size=3).map(lambda ops: Or(tuple(ops))),
    operands.map(Not),
)


def _table(data, keep_indexes):
    """The drawn rows under a leading row-number column ``i``."""
    names = ("i",) + COLUMNS
    cols = [list(range(len(data)))] + [[row[k] for row in data] for k in range(3)]
    table = Table.from_columns(names, cols, nrows=len(data))
    return table.keep_indexes() if keep_indexes else table


def _positions(table, predicate):
    try:
        return table.filter(predicate).column("i")
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc))


def _row_wise(data, predicate):
    try:
        return [
            i
            for i, row in enumerate(data)
            if predicate.evaluate(dict(zip(COLUMNS, row)))
        ]
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc),)


@settings(max_examples=500)
@given(data=rows, predicate=predicates)
def test_postings_keep_the_scans_positions_and_raises(data, predicate):
    indexed = _positions(_table(data, True), predicate)
    assert indexed == _positions(_table(data, False), predicate)
    want = _row_wise(data, predicate)
    if isinstance(want, tuple):  # the row-wise path raised
        assert isinstance(indexed, tuple) and indexed[0] is want[0]
    else:
        assert indexed == want


def test_a_later_equality_does_not_hide_a_raise():
    """Only the leading equalities seed: the arithmetic test must still
    meet the row that the trailing ``b = 2`` would have dropped."""
    table = _table([("x", 1, 1), (1, 2, 2)], True)
    predicate = And(
        (
            Comparison(">", Arithmetic("+", Col("a"), Const(1)), Const(1)),
            Comparison("=", Col("b"), Const(2)),
        )
    )
    assert _positions(table, predicate)[0] is QueryError


@settings(max_examples=100)
@given(data=rows, first=equalities, second=equalities)
def test_a_second_filter_reuses_the_postings(data, first, second):
    """The postings a filter builds are kept, and answer later filters."""
    table = _table(data, True)
    table.filter(first)
    name = first.left.name if isinstance(first.left, Col) else first.right.name
    posting = table.index_positions((name,))
    assert _positions(table, And((second, first))) == _positions(
        _table(data, False), And((second, first))
    )
    assert table.index_positions((name,)) is posting


def test_two_explains_build_each_posting_once(monkeypatch):
    """The joined U memoized per version keeps its postings: a second
    explain on the same database builds none of them again."""
    database = dblp.generate(scale=0.05, seed=2014)
    question = dblp.bump_question()
    built = {}
    index_positions = Table.index_positions

    def spy(table, cols):
        index = index_positions(table, cols)
        built.setdefault((id(table), tuple(cols)), set()).add(id(index))
        return index

    monkeypatch.setattr(Table, "index_positions", spy)
    tables = [
        build_explanation_table(
            database, question, dblp.default_attributes(), check_additivity=False
        )
        for _ in range(2)
    ]
    assert tables[0].content_fingerprint() == tables[1].content_fingerprint()
    u = universal_table(database)
    postings = {cols for key, cols in built if key == id(u)}
    assert {("Publication.venue",), ("Author.dom",)} <= postings
    assert all(len(built[id(u), cols]) == 1 for cols in postings)
