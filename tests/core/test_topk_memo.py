"""The memoised best-first order behind the Section 4.3 strategies.

The library ranks a table *M* by walking one order of its row positions
per (degree, minimality), kept on *M* and refined one degree run at a
time as walks reach it.  These tests hold the walks to the row-at-a-time
oracle (``topk_oracle``) and the lazy order to the eager full sort
(``support.topk.best_first``), check that a cold ranking reads a
fraction of *M* and a repeated one re-sorts nothing, and bound what one
*M* keeps.
"""

import sys
import threading
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import topk
from repro.core.cube_algorithm import MU_AGGR, MU_INTERV, ExplanationTable
from repro.core.explainer import Explainer
from repro.core.topk import STRATEGIES, BestFirstOrder, top_k_explanations
from repro.datasets import natality
from repro.engine.table import Table
from repro.engine.types import DUMMY, NULL
from repro.obs.recorder import TraceRecorder
from repro.service.engine import rank_table

import topk_oracle as oracle

from support.topk import best_first, dominated_rows


MINIMALITIES = ("general", "specific")

#: ``True``/``1``/``1.0`` are equal but ``sort_key`` orders ``True``
#: apart; NULL and DUMMY both mean "no condition".
ATTRIBUTE_VALUES = st.sampled_from(
    [DUMMY, NULL, True, False, 0, 1, 1.0, 2, 2.5, "x", "y"]
)
NAN = float("nan")
#: Few distinct degrees, so runs of tied rows are common; NULL/DUMMY
#: are undefined.  ``True == 1``, but ``sort_key`` orders them apart.
#: NaN compares false with every number; it ranks below them all.
DEGREES = (
    NULL, DUMMY, -1, 0, 1, 1.0, 2.5, 3, float("inf"), float("-inf"),
    True, False, "x", "y", NAN,
)


@st.composite
def tables(draw, degrees=DEGREES):
    degree = st.sampled_from(degrees)
    width = draw(st.integers(1, 4))
    attributes = tuple(f"R.a{i}" for i in range(width))
    rows = draw(
        st.lists(
            st.tuples(
                *[ATTRIBUTE_VALUES] * width,
                st.integers(0, 2),
                degree,
                degree,
            ),
            max_size=24,
        )
    )
    if rows:  # repeated rows: the self-join flags every copy of a row
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
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


class TestNanDegrees:
    def test_nan_ranks_below_every_number(self):
        """A NaN degree used to send the finite degrees around it out of
        order: this column ranked ``[6, nan, 8, 5, 2, 2, 1]``."""
        degrees = [6, 2, 8, 1, NAN, 2, 5]
        m = ExplanationTable(
            table=Table(
                ["R.a", "v_q", MU_INTERV, MU_AGGR],
                [(f"x{i}", 0, d, d) for i, d in enumerate(degrees)],
            ),
            attributes=("R.a",),
            aggregate_names=("q",),
            q_original={"q": 0},
        )
        for strategy in STRATEGIES:
            got = top_k_explanations(m, len(degrees), strategy=strategy)
            assert [repr(r.degree) for r in got] == [
                "8", "6", "5", "2", "2", "1", "nan"
            ]
            want = oracle.STRATEGIES[strategy](m, len(degrees))
            assert _rendered(got) == _rendered(want)


def _natality_m(rows: int = 3000, width: int = 4) -> ExplanationTable:
    explainer = Explainer(
        natality.generate(rows=rows, seed=7),
        natality.q_race_question(),
        natality.extended_attributes()[:width],
    )
    return explainer.explanation_table("cube")


class TestLazyOrderMatchesEagerSort:
    @settings(max_examples=400)
    @given(
        m=tables(),
        calls=st.lists(CALLS, min_size=1, max_size=6),
        data=st.data(),
    )
    def test_any_depth_after_interleaved_calls(self, m, calls, data):
        """After each call, the order it walked equals the full sort to
        any depth, then to full depth — NaN degrees included."""
        for strategy, by, minimality, k in calls:
            top_k_explanations(
                m, k, by=by, strategy=strategy, minimality=minimality
            )
            want = list(best_first(m, by, minimality))
            depth = data.draw(st.integers(0, len(want) + 1))
            order = topk._order(m, by, minimality)
            assert list(islice(order, depth)) == want[:depth]
            assert list(order.prefix(depth)) == want[:depth]
            assert list(order) == want

    def test_natality_orders(self):
        m = _natality_m()
        for by in (MU_INTERV, MU_AGGR):
            for minimality in MINIMALITIES:
                assert list(topk._order(m, by, minimality)) == list(
                    best_first(m, by, minimality)
                )


@pytest.fixture
def frequent_switches():
    """Let threads switch every microsecond, so walks interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestConcurrentWalks:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_walk_one_fresh_order(self, threads, frequent_switches):
        """Threads released together on one fresh *M* each walk the
        eager sort's order to full depth, through one shared order."""
        m = _natality_m(width=5)
        want = list(best_first(m, MU_INTERV, "general"))
        barrier = threading.Barrier(threads)
        walks = [None] * threads

        def walk(i):
            barrier.wait()
            walks[i] = list(topk._order(m, MU_INTERV, "general"))

        workers = [
            threading.Thread(target=walk, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert walks == [want] * threads
        orders = [v for v in m._memo.values() if isinstance(v, BestFirstOrder)]
        assert len(orders) == 1


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
        the order is reused.  Each span also says how many positions the
        call walked and how many of *M*'s the order has refined."""
        m = _natality_m()
        with TraceRecorder() as recorder:
            for strategy in ("no_minimal", "minimal_self_join", "no_minimal"):
                top_k_explanations(m, 3, strategy=strategy)
            top_k_explanations(m, 3, by=MU_AGGR)
        spans = [span.payload for span in recorder.spans() if span.name == "topk"]
        orders = [span["order"] for span in spans]
        assert orders == ["built", "reused", "reused", "built"]
        no_minimal, self_join, again, append = spans
        assert no_minimal["walked"] == again["walked"] == 3
        assert self_join["walked"] >= self_join["returned"] == 3
        assert append["walked"] >= append["returned"] == 3
        assert 3 <= no_minimal["refined"] <= self_join["refined"] < len(m)
        assert again["refined"] == self_join["refined"]
        assert 0 < append["refined"] < len(m)


class TestBoundedWork:
    def test_cold_minimal_append_reads_a_fraction_of_m(self, monkeypatch):
        """A full sort calls ``sort_key`` about 2·|M|·(d + 1) times; the
        lazy order only for the runs a k = 5 walk reaches."""
        m = _natality_m(rows=10_000, width=7)
        assert len(m) >= 4000
        calls = []
        real = topk.sort_key

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(topk, "sort_key", counting)
        top_k_explanations(m, 5, strategy="minimal_append")
        assert len(calls) < len(m)


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
        orders = [v for v in m._memo.values() if isinstance(v, BestFirstOrder)]
        assert len(hybrids) == 1
        assert 0 < len(orders) <= 2 * 2
        (_, hybrid_m), = hybrids
        hybrid_orders = sum(
            isinstance(v, BestFirstOrder) for v in hybrid_m._memo.values()
        )
        assert 0 < hybrid_orders <= 2
