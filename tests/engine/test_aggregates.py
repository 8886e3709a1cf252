"""Tests for aggregate accumulators and specs."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import (
    AGGREGATE_KINDS,
    AggregateSpec,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    count_distinct,
    count_star,
)
from repro.engine.types import NULL
from repro.errors import QueryError


def run(spec: AggregateSpec, values):
    acc = spec.make_accumulator()
    for v in values:
        acc.add(v)
    return acc.result()


class TestCountStar:
    def test_counts_everything(self):
        assert run(count_star("c"), [1, NULL, "x"]) == 3

    def test_empty(self):
        assert run(count_star("c"), []) == 0

    def test_argument_optional(self):
        spec = count_star("c")
        assert spec.argument is None


class TestCount:
    def test_skips_null(self):
        assert run(AggregateSpec("count", "a", "c"), [1, NULL, 2]) == 2

    def test_requires_argument(self):
        with pytest.raises(QueryError):
            AggregateSpec("count", None, "c")


class TestCountDistinct:
    def test_distinct(self):
        assert run(count_distinct("a", "c"), [1, 1, 2, NULL, 2]) == 2

    def test_empty(self):
        assert run(count_distinct("a", "c"), []) == 0

    def test_strings(self):
        assert run(count_distinct("a", "c"), ["P1", "P1", "P2"]) == 2


class TestSum:
    def test_sum(self):
        assert run(agg_sum("a", "s"), [1, 2, 3.5]) == 6.5

    def test_null_inputs_skipped(self):
        assert run(agg_sum("a", "s"), [1, NULL]) == 1

    def test_all_null_is_null(self):
        assert run(agg_sum("a", "s"), [NULL, NULL]) is NULL

    def test_empty_is_null(self):
        assert run(agg_sum("a", "s"), []) is NULL

    def test_non_numeric_raises(self):
        with pytest.raises(QueryError):
            run(agg_sum("a", "s"), ["x"])


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def _rounded(exact):
    """The float nearest *exact*, ±inf past the float range."""
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _split_sum(spec, values, cuts):
    """*values* fed to one accumulator per slice between *cuts*, the
    slices merged right to left: another order and merge tree."""
    bounds = [0, *sorted(c % (len(values) + 1) for c in cuts), len(values)]
    total = spec.make_accumulator()
    for lo, hi in reversed(list(zip(bounds, bounds[1:]))):
        part = spec.make_accumulator()
        part.add_many(reversed(values[lo:hi]))
        total.merge(part)
    return total.result()


class TestExactSum:
    """SUM and AVG are exact: one rounding, whatever the order."""

    @settings(max_examples=300)
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=30),
        cuts=st.lists(st.integers(0, 30), max_size=4),
    )
    def test_float_sum_is_fsum_in_any_order(self, values, cuts):
        want = _rounded(sum(map(Fraction, values)))
        try:
            assert math.fsum(values) == want
        except OverflowError:  # fsum gives up on an intermediate overflow
            pass
        assert run(agg_sum("a", "s"), values) == want
        assert _split_sum(agg_sum("a", "s"), values, cuts) == want

    def test_intermediate_overflow_is_not_an_overflow(self):
        assert run(agg_sum("a", "s"), [1e308, 1e308, -1e308]) == 1e308

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.one_of(finite_floats, st.integers(-(10**20), 10**20)),
            min_size=1,
            max_size=30,
        ),
        cuts=st.lists(st.integers(0, 30), max_size=4),
    )
    def test_avg_rounds_the_exact_mean_once(self, values, cuts):
        want = _rounded(sum(map(Fraction, values)) / len(values))
        assert run(agg_avg("a", "m"), values) == want
        assert _split_sum(agg_avg("a", "m"), values, cuts) == want

    def test_cents_do_not_drift(self):
        cents = [0.1] * 10
        assert run(agg_sum("a", "s"), cents) == 1.0
        assert sum(cents) != 1.0

    def test_integer_sum_stays_an_int(self):
        result = run(agg_sum("a", "s"), [10**30, 1, -(10**30)])
        assert result == 1 and type(result) is int

    def test_a_float_makes_the_sum_a_float(self):
        result = run(agg_sum("a", "s"), [1, 2.0])
        assert result == 3 and type(result) is float

    @pytest.mark.parametrize(
        "values, want",
        [
            ([1.0, math.inf], math.inf),
            ([-math.inf, 2], -math.inf),
            ([math.inf, -math.inf], math.nan),
            ([math.nan, 1.0], math.nan),
            ([1e308, 1e308], math.inf),
            ([-1e308, -1e308], -math.inf),
        ],
    )
    def test_non_finite_follows_ieee(self, values, want):
        got = run(agg_sum("a", "s"), values)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @settings(max_examples=200)
    @given(
        kept=st.lists(st.one_of(finite_floats, st.integers(-9, 9)), max_size=10),
        taken=st.lists(
            st.one_of(
                finite_floats,
                st.integers(-9, 9),
                st.sampled_from([math.inf, -math.inf, math.nan]),
            ),
            max_size=10,
        ),
    )
    def test_retract_undoes_merge(self, kept, taken):
        spec = agg_sum("a", "s").retractable()
        acc, extra = spec.make_accumulator(), spec.make_accumulator()
        acc.add_many(kept)
        extra.add_many(taken)
        acc.merge(extra)
        acc.retract(extra)
        want = run(agg_sum("a", "s"), kept)
        got = acc.result()
        assert got == want and type(got) is type(want)


class TestAvg:
    def test_avg(self):
        assert run(agg_avg("a", "m"), [1, 2, 3]) == 2

    def test_empty_is_null(self):
        assert run(agg_avg("a", "m"), []) is NULL

    def test_non_numeric_raises(self):
        with pytest.raises(QueryError):
            run(agg_avg("a", "m"), ["x"])


class TestMinMax:
    def test_min_max(self):
        assert run(agg_min("a", "m"), [3, 1, 2]) == 1
        assert run(agg_max("a", "m"), [3, 1, 2]) == 3

    def test_strings(self):
        assert run(agg_min("a", "m"), ["b", "a"]) == "a"
        assert run(agg_max("a", "m"), ["b", "a"]) == "b"

    def test_null_skipped(self):
        assert run(agg_min("a", "m"), [NULL, 5]) == 5

    def test_empty_is_null(self):
        assert run(agg_min("a", "m"), []) is NULL
        assert run(agg_max("a", "m"), []) is NULL


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(QueryError, match="unknown aggregate"):
            AggregateSpec("median", "a", "m")

    def test_empty_alias(self):
        with pytest.raises(QueryError):
            AggregateSpec("sum", "a", "")

    def test_default_values(self):
        assert count_star("c").default_value == 0
        assert count_distinct("a", "c").default_value == 0
        assert agg_sum("a", "s").default_value is NULL
        assert agg_min("a", "m").default_value is NULL

    def test_str(self):
        assert str(count_star("c")) == "count(*) AS c"
        assert str(count_distinct("pubid", "c")) == "count(distinct pubid) AS c"
        assert str(agg_sum("x", "s")) == "sum(x) AS s"

    def test_all_kinds_constructible(self):
        for kind in AGGREGATE_KINDS:
            arg = None if kind == "count_star" else "a"
            spec = AggregateSpec(kind, arg, "out")
            assert spec.make_accumulator() is not None
