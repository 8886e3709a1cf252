"""The one conditional-aggregate cube against Algorithm 1 as the paper runs it.

:func:`build_explanation_table` computes *M* from one cube whose
aggregate ``j`` reads only ``σ_{w_j}(U)``, rolled up the lattice of
grouping sets.  The oracle (:mod:`support.algorithm1`) cubes each
``q_j`` separately with the row-wise brute-force cube, joins the m
cubes on DUMMY and evaluates μ row by row.  The two tables must have
the same content fingerprint for every aggregate kind, fractional
floats, groups present in only one ``q_j``, rows in no selection, an
empty selection and 0–4 attributes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cube_algorithm import build_explanation_table
from repro.core.numquery import AggregateQuery, NumericalQuery
from repro.core.question import UserQuestion
from repro.engine.aggregates import AGGREGATE_KINDS, AggregateSpec
from repro.engine.cube import _cuboids, _projection, _rollup, base_states
from repro.engine.database import Database
from repro.engine.expressions import Arithmetic, Col, Comparison, Const
from repro.engine.schema import single_table_schema
from repro.engine.table import Table
from repro.engine.types import NULL

from support.algorithm1 import per_aggregate_table

ATTRIBUTES = ("a0", "a1", "a2", "a3")

#: Ints, cent-valued and other fractional floats, and NULL.
measures = st.one_of(
    st.integers(-4, 4),
    st.integers(-300, 300).map(lambda cents: cents / 100),
    st.sampled_from([0.1, 0.2, 0.3, 1e-17, 2.5e15]),
    st.just(NULL),
)
#: "z" never occurs in the data: a WHERE on it selects no row.
selectors = st.sampled_from(["p", "q", "r", "z"])


@st.composite
def questions(draw):
    m = draw(st.integers(1, 3))
    aggregates = []
    for j in range(m):
        kind = draw(st.sampled_from(AGGREGATE_KINDS))
        argument = None if kind == "count_star" else "T.x"
        where = draw(
            st.one_of(
                st.none(),
                selectors.map(
                    lambda w: Comparison("=", Col("T.w"), Const(w))
                ),
            )
        )
        aggregates.append(
            AggregateQuery(f"q{j}", AggregateSpec(kind, argument, f"q{j}"), where)
        )
    expression = Col("q0")
    for j in range(1, m):
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        expression = Arithmetic(op, expression, Col(f"q{j}"))
    direction = draw(st.sampled_from([UserQuestion.high, UserQuestion.low]))
    return direction(NumericalQuery(tuple(aggregates), expression))


@st.composite
def databases(draw):
    d = draw(st.integers(0, 4))
    rows = draw(
        st.lists(
            st.tuples(
                *(st.sampled_from(["u", "v", 1]) for _ in ATTRIBUTES),
                st.sampled_from(["p", "q", "r"]),
                measures,
            ),
            max_size=20,
        )
    )
    schema = single_table_schema("T", ["id", *ATTRIBUTES, "w", "x"], ["id"])
    database = Database(
        schema, {"T": [(i, *row) for i, row in enumerate(rows)]}
    )
    return database, [f"T.{a}" for a in ATTRIBUTES[:d]]


@settings(max_examples=200, deadline=None)
@given(instance=databases(), question=questions(), threshold=st.sampled_from([None, 1]))
def test_one_cube_matches_the_per_aggregate_pipeline(instance, question, threshold):
    database, attributes = instance
    got = build_explanation_table(
        database,
        question,
        attributes,
        check_additivity=False,
        support_threshold=threshold,
    )
    want = per_aggregate_table(
        database, question, attributes, support_threshold=threshold
    )
    assert got.q_original == want.q_original
    assert got.content_fingerprint() == want.content_fingerprint()


@st.composite
def cube_inputs(draw):
    d = draw(st.integers(0, 4))
    dims = [f"d{i}" for i in range(d)]
    rows = draw(
        st.lists(
            st.tuples(*(st.integers(0, 2) for _ in dims), measures),
            min_size=1,
            max_size=25,
        )
    )
    kinds = draw(st.lists(st.sampled_from(AGGREGATE_KINDS), min_size=1, max_size=3))
    aggregates = [
        AggregateSpec(kind, None if kind == "count_star" else "x", f"v{j}")
        for j, kind in enumerate(kinds)
    ]
    return Table(dims + ["x"], rows), dims, aggregates


def _results(cuboid, count_only):
    return [
        (key, tuple(state if count_only else [s.result() for s in state]))
        for key, state in cuboid.items()
    ]


@settings(max_examples=150, deadline=None)
@given(inputs=cube_inputs())
def test_every_cuboid_equals_its_rollup_from_the_base(inputs):
    """Rolling up from the smallest parent changes no state: each
    cuboid of the lattice equals the same cuboid rolled up straight
    from the base, floats included, groups in the same order."""
    table, dims, aggregates = inputs
    base, count_only = base_states([table] * len(aggregates), dims, aggregates)
    cuboids = _cuboids(base, dims, aggregates, count_only)
    assert len(cuboids) == 2 ** len(dims)
    for kept, cuboid in cuboids:
        direct = _rollup(base, _projection(list(kept)), aggregates, count_only)
        assert _results(cuboid, count_only) == _results(direct, count_only)
