"""E12 — Figure 14: time to output minimal top-K explanations.

All three strategies run over the stored table M (K = 10), sweeping
the number of relevant attributes.  Each is timed on its own cold copy
of M (``dataclasses.replace``): a ranking memoises its best-first order
on M, so a second strategy on the same M would time a memo hit.  Each
point is the least of 3 rounds, each on a fresh copy.
Expected shape (paper): No-Minimal cheapest; Minimal-self-join
competitive at few attributes;
Minimal-append scales better as the attribute count (and hence M)
grows.  Also reproduces the paper's redundancy observation: a
dominated explanation that No-Minimal surfaces within its top-K while
the minimal strategies suppress it.
"""

import dataclasses

from conftest import min_time, print_series

from repro.core import Explainer
from repro.core.topk import (
    top_k_minimal_append,
    top_k_minimal_self_join,
    top_k_no_minimal,
)
from repro.datasets import natality

K = 10
ATTR_COUNTS = [2, 4, 6, 8]


def test_fig14_strategy_sweep(benchmark, natality_db):
    attrs_all = natality.extended_attributes()
    tables = {}
    for d in ATTR_COUNTS:
        explainer = Explainer(
            natality_db, natality.q_race_question(), attrs_all[:d]
        )
        tables[d] = explainer.explanation_table("cube")

    def sweep():
        rows = []
        for d, m in tables.items():
            times = [
                min_time(strategy, setup=lambda m=m: (dataclasses.replace(m), K))
                for strategy in (
                    top_k_no_minimal, top_k_minimal_self_join, top_k_minimal_append
                )
            ]
            rows.append((d, *times, len(m)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series(
        "Figure 14: #attrs vs time (No Minimal)",
        [(d, t) for d, t, _, _, _ in rows],
        unit="s",
    )
    print_series(
        "Figure 14: #attrs vs time (Minimal-self join)",
        [(d, t) for d, _, t, _, _ in rows],
        unit="s",
    )
    print_series(
        "Figure 14: #attrs vs time (Minimal-append)",
        [(d, t) for d, _, _, t, _ in rows],
        unit="s",
    )
    print_series("table M size", [(d, m) for d, _, _, _, m in rows])
    benchmark.extra_info["rows"] = rows
    # No-Minimal is the cheapest once M is big enough for timing noise
    # not to dominate (sub-millisecond runs at 2 attributes are noise).
    for d, t_no, t_self, t_append, m_size in rows:
        if m_size < 1000:
            continue
        assert t_no <= t_self * 1.5
        assert t_no <= t_append * 1.5


def test_fig14_redundancy_example(benchmark, natality_db):
    """The paper: 'the explanation ranked 5 [by minimal strategies] is
    the 14th if we do not enforce minimality' — i.e. No-Minimal's list
    is polluted by dominated specializations.  We assert the generic
    form: No-Minimal's top-K contains at least one explanation that a
    minimal strategy suppresses as dominated."""
    explainer = Explainer(
        natality_db,
        natality.q_race_question(),
        natality.default_attributes("race"),
    )
    m = explainer.explanation_table("cube")

    def run():
        return (
            top_k_no_minimal(m, K),
            top_k_minimal_append(m, K),
        )

    no_minimal, minimal = benchmark(run)
    no_set = {str(r.explanation) for r in no_minimal}
    minimal_set = {str(r.explanation) for r in minimal}
    redundant = no_set - minimal_set
    print(f"\n== dominated explanations in No-Minimal top-{K}: {len(redundant)} ==")
    for text in sorted(redundant)[:5]:
        print(f"  {text}")
    benchmark.extra_info["redundant_count"] = len(redundant)
    assert redundant, "No-Minimal should surface dominated explanations"
