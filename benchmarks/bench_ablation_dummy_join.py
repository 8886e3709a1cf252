"""E15 — ablation: the Section 4.2 null→dummy join optimization.

The paper's Algorithm 1 joins m per-aggregate cubes.  Cube rows carry
NULL for "don't care" attributes, and NULL ≠ NULL kills the equi-join,
so the paper rewrites NULL to a dummy constant first.  The alternative —
a null-aware join that compares key tuples pairwise — is quadratic.
Expected shape: the dummy rewrite wins, increasingly so as the cubes
grow (more attributes).

Production builds *M* from one conditional-aggregate cube and joins
nothing.  The paper's per-aggregate pipeline lives here,
:class:`CubeInputs` (per-q_j cube, numpy-vectorized where
:mod:`repro.engine.fastpath` supports the aggregate, then
``dummy_rewrite`` and ``full_outer_join_many``), with its quadratic
baseline :func:`naive_null_aware_join`; both feed the same public
``finalize_explanation_table`` step.
"""

import time

from conftest import print_series

from repro.core.cube_algorithm import MU_INTERV, finalize_explanation_table
from repro.datasets import natality
from repro.engine import (
    NULL,
    AggregateSpec,
    Table,
    cube,
    dummy_rewrite,
    full_outer_join_many,
    universal_table,
)
from repro.engine import fastpath

ATTR_COUNTS = [2, 3, 4]


def naive_null_aware_join(cubes, on):
    """The m-way combination without the dummy rewrite.

    Treats NULL as an ordinary joinable marker by comparing key tuples
    with Python equality per pair of rows — the quadratic
    "(isnull A and isnull B) or (A = B)" plan the paper's optimization
    replaces.
    """
    on = list(on)
    result = cubes[0]
    for right in cubes[1:]:
        left_key_pos = result.positions(on)
        right_key_pos = right.positions(on)
        left_rest = [c for c in result.columns if c not in set(on)]
        right_rest = [c for c in right.columns if c not in set(on)]
        left_rest_pos = result.positions(left_rest)
        right_rest_pos = right.positions(right_rest)
        out_rows = []
        right_rows = right.rows()
        matched_right = [False] * len(right_rows)
        for lrow in result.rows():
            lkey = tuple(lrow[i] for i in left_key_pos)
            lvals = tuple(lrow[i] for i in left_rest_pos)
            matched = False
            for ridx, rrow in enumerate(right_rows):
                rkey = tuple(rrow[i] for i in right_key_pos)
                if lkey == rkey:  # NULL is a singleton: NULL == NULL here
                    matched = True
                    matched_right[ridx] = True
                    rvals = tuple(rrow[i] for i in right_rest_pos)
                    out_rows.append(lkey + lvals + rvals)
            if not matched:
                out_rows.append(lkey + lvals + (NULL,) * len(right_rest))
        for ridx, rrow in enumerate(right_rows):
            if matched_right[ridx]:
                continue
            rkey = tuple(rrow[i] for i in right_key_pos)
            rvals = tuple(rrow[i] for i in right_rest_pos)
            out_rows.append(rkey + (NULL,) * len(left_rest) + rvals)
        result = Table(on + left_rest + right_rest, out_rows)
    return result


class CubeInputs:
    """Steps 1–2 of the paper's Algorithm 1, shared by both join plans:
    u_j and one cube per aggregate query."""

    def __init__(self, database, question, attributes, *, universal=None):
        self.question = question
        self.attributes = list(attributes)
        u = universal if universal is not None else universal_table(database)
        self.q_original = question.query.aggregate_values(u)
        self.cubes = []
        for q in question.query.aggregates:
            spec = (
                AggregateSpec(q.aggregate.kind, q.aggregate.argument, f"v_{q.name}"),
            )
            kernel = fastpath.cube_numpy if fastpath.supports(spec) else cube
            self.cubes.append(kernel(q.filtered(u), self.attributes, spec))

    def _finalize(self, joined):
        return finalize_explanation_table(
            joined, self.question, self.attributes, self.q_original
        )

    def with_dummy_rewrite(self):
        rewritten = [dummy_rewrite(c, self.attributes) for c in self.cubes]
        return self._finalize(full_outer_join_many(rewritten, self.attributes))

    def with_null_aware_join(self):
        return self._finalize(naive_null_aware_join(self.cubes, self.attributes))


def test_ablation_dummy_rewrite(benchmark, natality_db):
    attrs_all = natality.default_attributes("marital")
    question = natality.q_marital_question()  # 4 cubes to join

    def sweep():
        rows = []
        for d in ATTR_COUNTS:
            inputs = CubeInputs(natality_db, question, attrs_all[:d])
            t0 = time.perf_counter()
            inputs.with_dummy_rewrite()
            t_dummy = time.perf_counter() - t0
            t0 = time.perf_counter()
            inputs.with_null_aware_join()
            t_null = time.perf_counter() - t0
            rows.append((d, t_dummy, t_null))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series(
        "ablation: #attrs vs join time (dummy rewrite)",
        [(d, t) for d, t, _ in rows],
        unit="s",
    )
    print_series(
        "ablation: #attrs vs join time (null-aware join)",
        [(d, t) for d, _, t in rows],
        unit="s",
    )
    benchmark.extra_info["rows"] = rows
    # The null-aware plan is slower once cubes have real size.
    assert rows[-1][2] > rows[-1][1]


def test_ablation_results_identical(benchmark, natality_db):
    """The optimization must not change the computed degrees."""
    inputs = CubeInputs(
        natality_db,
        natality.q_race_question(),
        ["Birth.marital", "Birth.tobacco"],
    )

    def both():
        return inputs.with_dummy_rewrite(), inputs.with_null_aware_join()

    fast, slow = benchmark(both)

    def norm(m):
        return {
            str(m.explanation_of(row)): round(
                row[m.table.position(MU_INTERV)], 9
            )
            for row in m.table.rows()
        }

    assert norm(fast) == norm(slow)
