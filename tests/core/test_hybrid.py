"""Tests for the hybrid degree column and hybrid ranking."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cube_algorithm import (
    MU_AGGR,
    MU_HYBRID,
    MU_INTERV,
    ExplanationTable,
    add_hybrid_column,
)
from repro.core.explainer import Explainer
from repro.core.topk import STRATEGIES
from repro.datasets import natality
from repro.engine.table import Table
from repro.engine.types import NULL, is_null
from repro.errors import ExplanationError

ROOT = Path(__file__).resolve().parents[2]
NAN = float("nan")


def make_m(rows):
    table = Table(
        ["R.a", "v_q", MU_INTERV, MU_AGGR],
        [(a, 0, mi, ma) for a, mi, ma in rows],
    )
    return ExplanationTable(
        table=table,
        attributes=("R.a",),
        aggregate_names=("q",),
        q_original={"q": 0},
    )


class TestAddHybridColumn:
    def test_column_added(self):
        m = add_hybrid_column(make_m([("x", 1.0, 10.0), ("y", 2.0, 5.0)]))
        assert m.table.has_column(MU_HYBRID)

    def test_rank_combination(self):
        # x: interv rank 2, aggr rank 1; y: interv rank 1, aggr rank 2.
        m = add_hybrid_column(
            make_m([("x", 1.0, 10.0), ("y", 2.0, 5.0)]), weight=0.5
        )
        rows = {r[0]: r[m.table.position(MU_HYBRID)] for r in m.table.rows()}
        assert rows["x"] == rows["y"] == -1.5

    def test_weight_one_is_intervention_order(self):
        m = add_hybrid_column(
            make_m([("x", 1.0, 10.0), ("y", 2.0, 5.0)]), weight=1.0
        )
        rows = {r[0]: r[m.table.position(MU_HYBRID)] for r in m.table.rows()}
        assert rows["y"] > rows["x"]  # y has the better intervention rank

    def test_weight_zero_is_aggravation_order(self):
        m = add_hybrid_column(
            make_m([("x", 1.0, 10.0), ("y", 2.0, 5.0)]), weight=0.0
        )
        rows = {r[0]: r[m.table.position(MU_HYBRID)] for r in m.table.rows()}
        assert rows["x"] > rows["y"]

    def test_missing_degree_gives_null(self):
        m = add_hybrid_column(make_m([("x", NULL, 10.0), ("y", 2.0, 5.0)]))
        rows = {r[0]: r[m.table.position(MU_HYBRID)] for r in m.table.rows()}
        assert is_null(rows["x"])
        assert not is_null(rows["y"])

    def test_invalid_weight(self):
        with pytest.raises(ExplanationError):
            add_hybrid_column(make_m([("x", 1.0, 1.0)]), weight=1.5)

    def test_idempotent(self):
        m = add_hybrid_column(make_m([("x", 1.0, 1.0)]))
        assert add_hybrid_column(m) is m

    def test_tied_degrees_share_the_lowest_rank(self):
        # interv ranks (SQL RANK()): x, y tie at 1, z is 3.
        m = add_hybrid_column(
            make_m([("x", 2.0, 1.0), ("y", 2.0, 1.0), ("z", 1.0, 1.0)]),
            weight=1.0,
        )
        pos = m.table.position(MU_HYBRID)
        rows = {r[0]: r[pos] for r in m.table.rows()}
        assert rows == {"x": -1.0, "y": -1.0, "z": -3.0}

    @settings(max_examples=200)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([NULL, 0, 1, 2.5, 3]),
                st.sampled_from([NULL, -1, 0, 1.0, 7]),
            ),
            max_size=12,
        ),
        weight=st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_hybrid_ignores_row_order(self, rows, weight, data):
        """μ_hybrid is a function of the two degree columns alone:
        permuting *M*'s rows permutes it with them."""
        named = [(f"r{i}", mi, ma) for i, (mi, ma) in enumerate(rows)]
        shuffled = data.draw(st.permutations(named))

        def hybrid_by_name(triples):
            m = add_hybrid_column(make_m(triples), weight=weight)
            pos = m.table.position(MU_HYBRID)
            return {r[0]: repr(r[pos]) for r in m.table.rows()}

        assert hybrid_by_name(named) == hybrid_by_name(shuffled)

    def test_nan_degree_ranks_last(self):
        # A NaN degree ranks below every number, as top-K orders it.
        degrees = [6, 2, 8, 1, NAN, 2, 5]
        m = add_hybrid_column(
            make_m([(f"r{i}", d, 0) for i, d in enumerate(degrees)]),
            weight=1.0,
        )
        pos = m.table.position(MU_HYBRID)
        assert [r[pos] for r in m.table.rows()] == [
            -2.0, -4.0, -1.0, -6.0, -7.0, -4.0, -3.0
        ]

    @settings(max_examples=200)
    @given(
        degrees=st.lists(
            st.one_of(
                st.sampled_from([NULL, NAN, 0, 1, 2.5, -3]),
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-5, 5),
            ),
            max_size=12,
        ),
    )
    def test_larger_finite_degree_never_ranks_worse(self, degrees):
        """With weight 1 the hybrid is minus μ_interv's rank: a larger
        finite degree never gets a worse rank, whatever NaN or NULL
        sits beside it, and equal degrees share one rank."""
        m = add_hybrid_column(
            make_m([(f"r{i}", d, 0) for i, d in enumerate(degrees)]),
            weight=1.0,
        )
        pos = m.table.position(MU_HYBRID)
        ranked = [
            (d, -r[pos])
            for d, r in zip(degrees, m.table.rows())
            if not is_null(d) and d == d
        ]
        for d1, rank1 in ranked:
            for d2, rank2 in ranked:
                if d1 > d2:
                    assert rank1 < rank2, (d1, d2, degrees)
                elif d1 == d2:
                    assert rank1 == rank2, (d1, d2, degrees)

    def test_last_weight_is_reused(self):
        base = make_m([("x", 1.0, 10.0), ("y", 2.0, 5.0)])
        half = add_hybrid_column(base, weight=0.5)
        assert add_hybrid_column(base, weight=0.5) is half
        assert add_hybrid_column(base, weight=0.25) is not half
        # 1 and 1.0 render differently, so they are two hybrids.
        assert add_hybrid_column(base, weight=1) is not add_hybrid_column(
            base, weight=1.0
        )

    def test_scale_invariance(self):
        """The rank hybrid ignores the raw magnitudes — the reason it
        exists (aggravation ratios can be 10^6 while intervention
        degrees are ~10^2)."""
        small = add_hybrid_column(
            make_m([("x", 1.0, 10.0), ("y", 2.0, 5.0)])
        )
        big = add_hybrid_column(
            make_m([("x", 1.0, 10.0e6), ("y", 2.0, 5.0e6)])
        )
        pos = small.table.position(MU_HYBRID)
        small_rows = {r[0]: r[pos] for r in small.table.rows()}
        big_rows = {r[0]: r[pos] for r in big.table.rows()}
        assert small_rows == big_rows


class TestExplainerHybrid:
    def test_top_by_hybrid(self):
        db = natality.generate(rows=2000, seed=4)
        explainer = Explainer(
            db,
            natality.q_race_question(),
            ["Birth.marital", "Birth.tobacco"],
        )
        top = explainer.top(3, by="hybrid")
        assert len(top) == 3
        degrees = [r.degree for r in top]
        assert degrees == sorted(degrees, reverse=True)

    def test_hybrid_weight_extremes_match_components(self):
        """weight=1 is a strictly decreasing function of μ_interv's
        rank and tied degrees share a rank, so it ranks exactly as
        intervention does — ties, dominance and all — under every
        strategy (weight=0 likewise for aggravation)."""
        db = natality.generate(rows=2000, seed=4)
        explainer = Explainer(
            db,
            natality.q_race_question(),
            ["Birth.marital", "Birth.tobacco"],
        )
        for weight, by in ((1.0, "intervention"), (0.0, "aggravation")):
            for strategy in STRATEGIES:
                hybrid = explainer.top(
                    5, by="hybrid", hybrid_weight=weight, strategy=strategy
                )
                component = explainer.top(5, by=by, strategy=strategy)
                assert [r.explanation for r in hybrid] == [
                    r.explanation for r in component
                ]


#: Hybrid rankings of the bundled datasets whose *M* row order depends
#: on string hashing.
_HYBRID_RANKINGS = """
from repro.core.explainer import Explainer
from repro.core.topk import STRATEGIES
from repro.datasets.catalog import BUNDLED

for name in ("running-example", "geodblp", "tpch"):
    database, question, attributes = BUNDLED[name]()
    explainer = Explainer(database, question, attributes)
    for strategy in STRATEGIES:
        for minimality in ("general", "specific"):
            for r in explainer.top(
                10, by="hybrid", strategy=strategy, minimality=minimality,
                method="auto",
            ):
                print(name, strategy, minimality, r.rank, r.explanation,
                      repr(r.degree))
"""


class TestHybridIsHashSeedFree:
    def test_rankings_equal_under_two_hash_seeds(self):
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _HYBRID_RANKINGS],
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
                cwd=str(ROOT),
                env={
                    "PYTHONPATH": str(ROOT / "src"),
                    "PATH": "/usr/bin:/bin",
                    "PYTHONHASHSEED": seed,
                },
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0]
        assert outputs[0] == outputs[1]
