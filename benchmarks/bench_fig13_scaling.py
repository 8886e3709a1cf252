"""E11 — Figure 13: time to compute all degrees (table M), cube path.

(a) data size vs time for Q_Race (2 aggregates) and Q_Marital (4
aggregates) over the same four attributes — Q_Marital costs more
because Algorithm 1 builds and joins twice as many cubes;
(b) number of attributes vs time on a fixed instance — the candidate
space (and hence cube size) grows multiplicatively.
"""

import time

from conftest import print_series

from repro.core import Explainer
from repro.datasets import natality

FOUR_ATTRS = [
    "Birth.age",
    "Birth.tobacco",
    "Birth.prenatal",
    "Birth.education",
]
SIZES = [1_000, 5_000, 20_000]
ATTR_COUNTS = [2, 4, 6, 8]


def _timed_build(db, question, attrs):
    explainer = Explainer(db, question, attrs)
    start = time.perf_counter()
    explainer.explanation_table("cube")
    return time.perf_counter() - start


def test_fig13a_size_vs_time(benchmark):
    databases = {n: natality.generate(rows=n, seed=9) for n in SIZES}

    def sweep():
        race, marital = [], []
        for n, db in databases.items():
            race.append((n, _timed_build(db, natality.q_race_question(), FOUR_ATTRS)))
            marital.append(
                (n, _timed_build(db, natality.q_marital_question(), FOUR_ATTRS))
            )
        return race, marital

    race, marital = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("Figure 13a: size vs time (Q_Race, 2 cubes)", race, unit="s")
    print_series("Figure 13a: size vs time (Q_Marital, 4 cubes)", marital, unit="s")
    benchmark.extra_info["race"] = race
    benchmark.extra_info["marital"] = marital
    # Time grows with data size for both questions.
    assert race[-1][1] > race[0][1]
    assert marital[-1][1] > marital[0][1]
    # Q_Marital (4 aggregates) costs more than Q_Race (2 aggregates).
    assert marital[-1][1] > race[-1][1]


def test_fig13b_attributes_vs_time(benchmark, natality_db):
    attrs_all = natality.extended_attributes()

    def sweep():
        out = []
        for d in ATTR_COUNTS:
            out.append(
                (
                    d,
                    _timed_build(
                        natality_db, natality.q_race_question(), attrs_all[:d]
                    ),
                )
            )
        return out

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("Figure 13b: #attributes vs time (Q_Race)", series, unit="s")
    benchmark.extra_info["series"] = series
    times = [t for _, t in series]
    assert times[-1] > times[0], "more attributes => more time"


def test_fig13_candidate_counts(benchmark, natality_db):
    """The paper quotes >71K candidates at 8 attributes for Q_Race; we
    report the candidate counts for our attribute ladder."""
    from repro.core.candidates import count_candidates
    from repro.engine.universal import universal_table

    u = universal_table(natality_db)
    attrs_all = natality.extended_attributes()

    def counts():
        return [
            (d, count_candidates(u, attrs_all[:d])) for d in (2, 4, 6, 8)
        ]

    series = benchmark(counts)
    print_series("candidate explanations vs #attributes", series)
    benchmark.extra_info["series"] = series
    values = [c for _, c in series]
    assert values == sorted(values)
    assert values[-1] > 10_000  # multiplicative growth
