"""Columnar/row-oriented parity properties (hypothesis).

The columnar execution core (``cube``, ``group_by``) must produce the
same tables as the retained row-at-a-time oracles (``cube_bruteforce``,
``cube_rowwise``, ``group_by_rowwise``) on arbitrary schemas and rows —
including NULL measure values, duplicate rows, empty inputs, variable
dimension counts, and every accumulator kind (the merge paths of the
single-pass rollup are only exercised by non-count aggregates).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import (
    AggregateSpec,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    count_distinct,
    count_star,
)
from repro.engine.cube import cube
from repro.engine.groupby import group_by
from repro.engine.table import Table
from repro.engine.types import NULL

from support.cube import cube_bruteforce, cube_rowwise, group_by_rowwise


dim_values = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b", "c"]))
measure_values = st.one_of(st.integers(-5, 5), st.just(NULL))
mixed_values = st.one_of(
    st.integers(-5, 5), st.sampled_from(["a", "b"]), st.just(NULL)
)


@st.composite
def cube_inputs(draw):
    """(table, dimensions): 1-3 non-null dimension columns, a numeric
    measure ``x`` (NULL allowed) and a mixed column ``y``."""
    ndims = draw(st.integers(1, 3))
    dims = [f"d{i}" for i in range(ndims)]
    rows = draw(
        st.lists(
            st.tuples(
                *(dim_values for _ in dims), measure_values, mixed_values
            ),
            max_size=25,
        )
    )
    return Table(dims + ["x", "y"], rows), dims


def all_kind_aggregates():
    """One aggregate per accumulator kind, all over the same input."""
    return [
        count_star("n"),
        AggregateSpec("count", "x", "nx"),
        count_distinct("y", "dy"),
        agg_sum("x", "sx"),
        agg_avg("x", "ax"),
        agg_min("x", "mn"),
        agg_max("x", "mx"),
    ]


common = settings(max_examples=60)


class TestColumnarCubeParity:
    @common
    @given(data=cube_inputs())
    def test_cube_matches_bruteforce_all_kinds(self, data):
        t, dims = data
        aggs = all_kind_aggregates()
        assert cube(t, dims, aggs) == cube_bruteforce(t, dims, aggs)

    @common
    @given(data=cube_inputs())
    def test_cube_matches_rowwise_all_kinds(self, data):
        t, dims = data
        aggs = all_kind_aggregates()
        assert cube(t, dims, aggs) == cube_rowwise(t, dims, aggs)

    @common
    @given(data=cube_inputs())
    def test_count_only_fast_path_matches_oracles(self, data):
        # all-count_star cubes take the Counter fast path; check it
        # against both oracles explicitly.
        t, dims = data
        aggs = [count_star("n"), count_star("n2")]
        fast = cube(t, dims, aggs)
        assert fast == cube_rowwise(t, dims, aggs)
        assert fast == cube_bruteforce(t, dims, aggs)


class TestColumnarGroupByParity:
    @common
    @given(data=cube_inputs())
    def test_group_by_matches_rowwise_all_kinds(self, data):
        t, dims = data
        aggs = all_kind_aggregates()
        assert group_by(t, dims, aggs) == group_by_rowwise(t, dims, aggs)

    @common
    @given(data=cube_inputs())
    def test_group_by_null_keys_match(self, data):
        # group_by (unlike cube) accepts NULL grouping values; group on
        # the nullable mixed column to exercise that path.
        t, _ = data
        aggs = [count_star("n"), agg_sum("x", "sx")]
        assert group_by(t, ["y"], aggs) == group_by_rowwise(t, ["y"], aggs)

    @common
    @given(data=cube_inputs())
    def test_scalar_group_matches_rowwise(self, data):
        t, _ = data
        aggs = all_kind_aggregates()
        assert group_by(t, [], aggs) == group_by_rowwise(t, [], aggs)
