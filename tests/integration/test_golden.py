"""Golden-ranking regression tests.

The synthetic generators are fully deterministic per (seed, scale), so
the top explanations of each reference workload are stable artifacts.
These tests pin them: an accidental change to the generators, the cube
algorithm, the degree arithmetic, or the top-K tie-breaking will show
up here as a diff against the recorded golden rankings.

If a change is *intentional* (e.g. retuning a generator), regenerate
with::

    python tests/integration/test_golden.py --regenerate

and review the diff in tests/integration/golden_rankings.json.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_rankings.json"


def compute_rankings():
    """The current rankings for every reference workload."""
    from repro.core import Explainer
    from repro.datasets import dblp, geodblp, natality
    from repro.datasets import running_example as rex
    from repro.core import (
        AggregateQuery,
        UserQuestion,
        single_query,
    )
    from repro.engine import Col, Comparison, Const, count_distinct

    out = {}

    db = rex.database()
    q = single_query(
        AggregateQuery(
            "q",
            count_distinct("Publication.pubid", "q"),
            Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
        )
    )
    ex = Explainer(db, UserQuestion.high(q), ["Author.name", "Publication.year"])
    out["running_example"] = [
        [r.rank, str(r.explanation), round(float(r.degree), 6)]
        for r in ex.top(4)
    ]

    db = natality.generate(rows=10_000, seed=2014)
    ex = Explainer(
        db, natality.q_race_question(), natality.default_attributes("race")
    )
    out["natality_qrace_10k"] = [
        [r.rank, str(r.explanation), round(float(r.degree), 6)]
        for r in ex.top(5)
    ]

    db = dblp.generate(scale=0.5, seed=3)
    ex = Explainer(db, dblp.bump_question(), dblp.default_attributes())
    # The bump question is not certified additive (footnote-11 WHERE/FD
    # condition), so "auto" resolves to the indexed exact evaluator.
    out["dblp_bump_s05"] = [
        [r.rank, str(r.explanation), round(float(r.degree), 6)]
        for r in ex.top(5, method="auto")
    ]

    db = geodblp.generate(scale=1.0, seed=5)
    ex = Explainer(db, geodblp.uk_question(), geodblp.default_attributes())
    out["geodblp_uk_s10"] = [
        [r.rank, str(r.explanation), round(float(r.degree), 6)]
        for r in ex.top(5)
    ]

    # One golden per planted TPC-H question at the canonical instance
    # (sf 0.01, seed 2014) — the same workloads tests/differential sweeps.
    from repro.datasets import tpch

    db = tpch.generate(sf=0.01, seed=2014)
    for name in tpch.QUESTIONS:
        ex = Explainer(
            db, tpch.question(name), list(tpch.question_attributes(name))
        )
        out[f"tpch_{name.replace('-', '_')}_sf001"] = [
            [r.rank, str(r.explanation), round(float(r.degree), 6)]
            for r in ex.top(5)
        ]
    return out


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.skip("golden_rankings.json missing; regenerate it")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return compute_rankings()


class TestGoldenRankings:
    @pytest.mark.parametrize(
        "workload",
        [
            "running_example",
            "natality_qrace_10k",
            "dblp_bump_s05",
            "geodblp_uk_s10",
            "tpch_europe_bump_sf001",
            "tpch_region_share_sf001",
            "tpch_returned_share_sf001",
            "tpch_promo_share_sf001",
            "tpch_urgent_air_sf001",
            "tpch_brand_revenue_sf001",
            "tpch_france_surge_sf001",
        ],
    )
    def test_ranking_stable(self, golden, current, workload):
        assert current[workload] == golden[workload], (
            f"{workload} ranking changed; if intentional, regenerate "
            "golden_rankings.json (see module docstring)"
        )


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        GOLDEN_PATH.write_text(
            json.dumps(compute_rankings(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
