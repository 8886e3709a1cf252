"""The memoised best-first order behind the Section 4.3 strategies.

The library ranks a table *M* by walking one order of its row positions
per (degree, minimality), built on the first request and kept on *M*.
These tests hold the walks to the row-at-a-time oracle
(``topk_oracle``), check that a repeated ranking re-sorts nothing, and
bound what one *M* keeps.
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import topk
from repro.core.cube_algorithm import MU_AGGR, MU_INTERV, ExplanationTable
from repro.core.explainer import Explainer
from repro.core.topk import STRATEGIES, top_k_explanations
from repro.datasets import natality
from repro.engine.table import Table
from repro.engine.types import DUMMY, NULL
from repro.obs.recorder import TraceRecorder
from repro.service.engine import rank_table

import topk_oracle as oracle

from support.topk import dominated_rows


MINIMALITIES = ("general", "specific")

#: ``True``/``1``/``1.0`` are equal but ``sort_key`` orders ``True``
#: apart; NULL and DUMMY both mean "no condition".
ATTRIBUTE_VALUES = st.sampled_from(
    [DUMMY, NULL, True, False, 0, 1, 1.0, 2, 2.5, "x", "y"]
)
#: Few distinct degrees, so ties are common; NULL/DUMMY are undefined.
DEGREES = st.sampled_from([NULL, DUMMY, -1, 0, 1, 1.0, 2.5, 3])


@st.composite
def tables(draw):
    width = draw(st.integers(1, 3))
    attributes = tuple(f"R.a{i}" for i in range(width))
    rows = draw(
        st.lists(
            st.tuples(
                *[ATTRIBUTE_VALUES] * width,
                st.integers(0, 2),
                DEGREES,
                DEGREES,
            ),
            max_size=10,
        )
    )
    if rows:  # repeated rows: the self-join flags every copy of a row
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return ExplanationTable(
        table=Table(list(attributes) + ["v_q", MU_INTERV, MU_AGGR], rows),
        attributes=attributes,
        aggregate_names=("q",),
        q_original={"q": 0},
    )


def _rendered(ranking):
    # repr, not ==: True == 1, but a walk must return the oracle's row.
    return [
        (r.rank, str(r.explanation), repr(r.degree), repr(r.row))
        for r in ranking
    ]


CALLS = st.tuples(
    st.sampled_from(sorted(STRATEGIES)),
    st.sampled_from([MU_INTERV, MU_AGGR]),
    st.sampled_from(MINIMALITIES),
    st.integers(0, 12),
)


class TestWalksMatchOracle:
    @settings(max_examples=400)
    @given(m=tables(), calls=st.lists(CALLS, min_size=1, max_size=6))
    def test_interleaved_calls_on_one_m(self, m, calls):
        """Every call — cold or reusing an earlier call's order — equals
        the oracle, for any k in [0, |M| + 1] and beyond."""
        for strategy, by, minimality, k in calls:
            got = top_k_explanations(
                m, k, by=by, strategy=strategy, minimality=minimality
            )
            want = oracle.STRATEGIES[strategy](
                m, k, by=by, minimality=minimality
            )
            assert _rendered(got) == _rendered(want)

    @settings(max_examples=200)
    @given(m=tables())
    def test_dominated_rows_match_oracle(self, m):
        for by in (MU_INTERV, MU_AGGR):
            for minimality in MINIMALITIES:
                assert dominated_rows(
                    m, by=by, minimality=minimality
                ) == oracle.dominated_rows(m, by=by, minimality=minimality)

    def test_every_copy_of_a_dominated_row_is_dropped(self):
        """Specific minimality marks one best row per signature; its
        repeat is the same row, so it goes too."""
        dominated = ("X", DUMMY, 0, 5.0, 5.0)
        m = ExplanationTable(
            table=Table(
                ["R.a", "R.b", "v_q", MU_INTERV, MU_AGGR],
                [dominated, dominated, ("X", "Y", 0, 5.0, 5.0)],
            ),
            attributes=("R.a", "R.b"),
            aggregate_names=("q",),
            q_original={"q": 0},
        )
        got = top_k_explanations(
            m, 3, strategy="minimal_self_join", minimality="specific"
        )
        want = oracle.top_k_minimal_self_join(m, 3, minimality="specific")
        assert _rendered(got) == _rendered(want)
        assert len(got) == 1

    def test_k_ten_then_three_intervention_then_aggravation(self):
        m = _natality_m()
        for by in (MU_INTERV, MU_AGGR):
            for k in (10, 3):
                for strategy in STRATEGIES:
                    for minimality in MINIMALITIES:
                        got = top_k_explanations(
                            m, k, by=by, strategy=strategy,
                            minimality=minimality,
                        )
                        want = oracle.STRATEGIES[strategy](
                            m, k, by=by, minimality=minimality
                        )
                        assert _rendered(got) == _rendered(want)


def _natality_m() -> ExplanationTable:
    explainer = Explainer(
        natality.generate(rows=3000, seed=7),
        natality.q_race_question(),
        natality.extended_attributes()[:4],
    )
    return explainer.explanation_table("cube")


class TestOrderIsReused:
    def test_second_ranking_makes_no_sort_key_call(self, monkeypatch):
        m = _natality_m()
        requests = [
            (strategy, by, minimality)
            for strategy in STRATEGIES
            for by in (MU_INTERV, MU_AGGR)
            for minimality in MINIMALITIES
        ]

        def rank_all():
            return [
                _rendered(
                    top_k_explanations(
                        m, 5, by=by, strategy=strategy, minimality=minimality
                    )
                )
                for strategy, by, minimality in requests
            ]

        first = rank_all()
        calls = []
        real = topk.sort_key

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(topk, "sort_key", counting)
        assert rank_all() == first
        assert calls == []

    def test_topk_span_says_whether_the_order_was_built(self):
        """Self-join after No-Minimal builds only the dominance flags:
        the order is reused."""
        m = _natality_m()
        with TraceRecorder() as recorder:
            for strategy in ("no_minimal", "minimal_self_join", "no_minimal"):
                top_k_explanations(m, 3, strategy=strategy)
            top_k_explanations(m, 3, by=MU_AGGR)
        orders = [
            span.payload["order"]
            for span in recorder.spans()
            if span.name == "topk"
        ]
        assert orders == ["built", "reused", "reused", "built"]


class TestMemoBound:
    def test_hundred_hybrid_weights_keep_one_hybrid_table(self):
        m = _natality_m()
        for i in range(100):
            for minimality in MINIMALITIES:
                for by in ("intervention", "aggravation", "hybrid"):
                    rank_table(
                        m, k=3, by=by, hybrid_weight=i / 99,
                        minimality=minimality,
                    )
        hybrids = [v for v in m._memo.values() if isinstance(v, tuple)]
        orders = [v for v in m._memo.values() if isinstance(v, array)]
        assert len(hybrids) == 1
        assert len(orders) <= 2 * 2
        (_, hybrid_m), = hybrids
        assert sum(isinstance(v, array) for v in hybrid_m._memo.values()) <= 2
