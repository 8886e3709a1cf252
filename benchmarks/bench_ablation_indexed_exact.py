"""E17 — ablation: the Section 6(i) optimized iterative evaluator.

For non-additive queries the cube is unavailable and the paper's
prototype falls back to a naive loop.  Our indexed evaluator takes v_j
and μ_aggr from Algorithm 1's cube and runs program P per cube row for
μ_interv, sharing posting lists, per-tuple occurrence counts, and
survival scans across candidates.  Expected shape: indexed ≪
per-candidate exact, with the gap widening as the candidate count
grows; indexed's candidates a subset of exact's, with identical
columns.
"""

import time

from conftest import min_time, print_series

from repro.core import Explainer
from repro.core.cube_algorithm import MU_AGGR, MU_INTERV
from repro.core.iterative import IndexedInterventionEvaluator
from repro.core.numquery import AggregateQuery, single_query
from repro.core.question import UserQuestion
from repro.datasets import dblp
from repro.engine.aggregates import count_star


def count_star_question():
    """count(*) over the DBLP join — NOT intervention-additive."""
    return UserQuestion.high(
        single_query(AggregateQuery("q", count_star("q")))
    )


def test_ablation_indexed_vs_exact(benchmark):
    db = dblp.generate(scale=0.25, seed=8)
    question = count_star_question()
    attrs = ["Author.inst"]

    def both():
        t0 = time.perf_counter()
        m_indexed = IndexedInterventionEvaluator(
            db, question, attrs
        ).build_table()
        t_indexed = time.perf_counter() - t0
        t0 = time.perf_counter()
        m_exact = Explainer(db, question, attrs).explanation_table("exact")
        t_exact = time.perf_counter() - t0
        return m_indexed, t_indexed, m_exact, t_exact

    m_indexed, t_indexed, m_exact, t_exact = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    print_series(
        "ablation: exact-evaluator time",
        [("indexed", t_indexed), ("per-candidate", t_exact)],
        unit="s",
    )
    benchmark.extra_info["t_indexed"] = t_indexed
    benchmark.extra_info["t_exact"] = t_exact
    benchmark.extra_info["speedup"] = t_exact / t_indexed
    assert t_indexed < t_exact, "the shared-index evaluator should win"

    def degree_map(m, column):
        pos = m.table.position(column)
        return {str(m.explanation_of(row)): row[pos] for row in m.table.rows()}

    assert m_indexed.q_original == m_exact.q_original
    assert set(degree_map(m_indexed, MU_INTERV)) <= set(
        degree_map(m_exact, MU_INTERV)
    ), "indexed found candidates exact does not have"
    values = [f"v_{name}" for name in m_indexed.aggregate_names]
    for column in [MU_INTERV, MU_AGGR] + values:
        fast, slow = degree_map(m_indexed, column), degree_map(m_exact, column)
        for key in fast:
            assert abs(fast[key] - slow[key]) < 1e-9, (column, key)


def test_ablation_indexed_scales_with_candidates(benchmark):
    db = dblp.generate(scale=0.25, seed=8)
    question = count_star_question()

    def sweep():
        out = []
        for attrs in (["Author.inst"], ["Author.inst", "Publication.venue"]):
            t = min_time(
                lambda attrs=attrs: IndexedInterventionEvaluator(
                    db, question, attrs
                ).build_table()
            )
            out.append((len(attrs), t))
        return out

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("indexed evaluator: #attrs vs time", series, unit="s")
    assert series[-1][1] >= series[0][1] * 0.5  # grows (or holds) with attrs
