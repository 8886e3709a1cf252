"""E10 — Figure 12: the benefit of the data-cube optimization.

Compares three evaluators building the same table M for Q_Race:

* **Cube** — Algorithm 1 (single-pass cube per aggregate);
* **BruteCube** — 2^d independent group-bys (an intermediate baseline);
* **No Cube** — per-candidate iteration: for every candidate
  explanation, filter the universal table and re-aggregate (the
  paper's naive loop).

Two sweeps, like Figure 12a/b: input size (at 2 attributes) and number
of attributes (at a fixed sample).  Expected shape: Cube ≪ No Cube,
with the gap widening in both sweeps.
"""

from conftest import min_time, print_series

from repro.core import Explainer
from repro.datasets import natality
from repro.engine.universal import universal_table

SIZES = [500, 2_000, 8_000]
ATTR_COUNTS = [1, 2, 3]
TWO_ATTRS = ["Birth.marital", "Birth.prenatal"]


def _build(db, attrs, method, **kwargs):
    explainer = Explainer(db, natality.q_race_question(), attrs)
    return explainer.explanation_table(method, **kwargs)


class TestFig12aSizeSweep:
    def test_fig12a_cube_vs_naive(self, benchmark):
        databases = {
            n: natality.generate(rows=n, seed=7) for n in SIZES
        }

        def sweep():
            rows = []
            for n, db in databases.items():
                t_cube = min_time(_build, setup=lambda db=db: (db, TWO_ATTRS, "cube"))
                t_naive = min_time(
                    _build, setup=lambda db=db: (db, TWO_ATTRS, "naive")
                )
                rows.append((n, t_cube, t_naive))
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print_series(
            "Figure 12a: size vs time (cube)",
            [(n, t) for n, t, _ in rows],
            unit="s",
        )
        print_series(
            "Figure 12a: size vs time (no cube)",
            [(n, t) for n, _, t in rows],
            unit="s",
        )
        benchmark.extra_info["rows"] = rows
        # Shape: naive is slower at every size; the gap grows with n.
        assert all(t_naive > t_cube for _, t_cube, t_naive in rows)
        first_ratio = rows[0][2] / rows[0][1]
        last_ratio = rows[-1][2] / rows[-1][1]
        assert last_ratio > first_ratio * 0.5, "gap should not collapse"


class TestFig12bAttributeSweep:
    def test_fig12b_attribute_sweep(self, benchmark):
        db = natality.generate(rows=1_000, seed=7)
        attrs_all = natality.default_attributes("race")
        # U is memoized per database version; build it here, so that the
        # first timed point does not pay for it alone.
        universal_table(db)

        def sweep():
            rows = []
            for d in ATTR_COUNTS:
                attrs = attrs_all[:d]
                t_cube = min_time(_build, setup=lambda a=attrs: (db, a, "cube"))
                t_naive = min_time(_build, setup=lambda a=attrs: (db, a, "naive"))
                rows.append((d, t_cube, t_naive))
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print_series(
            "Figure 12b: #attributes vs time (cube)",
            [(d, t) for d, t, _ in rows],
            unit="s",
        )
        print_series(
            "Figure 12b: #attributes vs time (no cube)",
            [(d, t) for d, _, t in rows],
            unit="s",
        )
        benchmark.extra_info["rows"] = rows
        assert all(t_naive > t_cube for _, t_cube, t_naive in rows)
        # Naive blows up with attribute count much faster than cube.
        naive_growth = rows[-1][2] / max(rows[0][2], 1e-9)
        cube_growth = rows[-1][1] / max(rows[0][1], 1e-9)
        assert naive_growth > cube_growth
