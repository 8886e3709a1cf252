"""E13 — Figure 15: the UK SIGMOD/PODS anomaly over the 8-table join.

(a) percentage of SIGMOD vs PODS publications per country — the UK is
the outlier with >50% PODS;
(b) top explanations by intervention for (Q = UK SIGMOD/PODS ratio,
low): PODS-heavy UK researchers and institutions, with
[City.city = Oxford] ranked above [inst = Oxford Univ.] thanks to
Semmle Ltd. and the split institution-name formats.
"""

from conftest import print_ranking, print_series

from repro.core import Explainer
from repro.datasets import geodblp


def test_fig15a_country_percentages(benchmark, geodblp_db):
    pct = benchmark(geodblp.country_venue_percentages, geodblp_db)
    series = sorted(
        ((country, v["PODS"]) for country, v in pct.items()),
        key=lambda kv: -kv[1],
    )
    print_series("Figure 15a: % PODS by country", series, unit="%")
    benchmark.extra_info["pods_pct"] = dict(series)
    assert pct["United Kingdom"]["PODS"] > 50
    others = [v["PODS"] for c, v in pct.items() if c != "United Kingdom"]
    assert all(pct["United Kingdom"]["PODS"] > v for v in others)


def test_fig15b_top_explanations(benchmark, geodblp_db):
    explainer = Explainer(
        geodblp_db, geodblp.uk_question(), geodblp.default_attributes()
    )
    top = benchmark(lambda: explainer.top(8, strategy="minimal_self_join"))
    print(f"\nQ(D) = {explainer.original_value():.3f}")
    print_ranking("Figure 15b: top explanations by intervention", top)
    benchmark.extra_info["top"] = [str(r.explanation) for r in top]

    texts = [str(r.explanation) for r in top]
    joined = " ".join(texts)
    # UK sites dominate.
    assert any(
        s in joined for s in ("Oxford", "Edinburgh", "Semmle", "Manchester")
    )
    # The paper's headline effect: city=Oxford above inst=Oxford Univ.
    oxford_city_rank = next(
        (r.rank for r in top if "City.city = 'Oxford'" in str(r.explanation)),
        None,
    )
    oxford_inst_rank = next(
        (
            r.rank
            for r in top
            if "AffiliationG.inst = 'Oxford Univ.'" in str(r.explanation)
        ),
        None,
    )
    assert oxford_city_rank is not None
    if oxford_inst_rank is not None:
        assert oxford_city_rank < oxford_inst_rank


def test_fig15_table_materialization_time(benchmark, geodblp_db):
    """Paper: 2.176 s to materialize M over the 8-way join; we time the
    same step (absolute numbers differ — engine substitution)."""

    def fresh_explainer():
        # A new Explainer per round: a reused one would serve M from
        # its table cache after the first.
        explainer = Explainer(
            geodblp_db, geodblp.uk_question(), geodblp.default_attributes()
        )
        return (explainer,), {}

    m = benchmark.pedantic(
        lambda explainer: explainer.explanation_table("cube"),
        setup=fresh_explainer,
        rounds=5,
    )
    benchmark.extra_info["m_rows"] = len(m)
    assert len(m) > 0
