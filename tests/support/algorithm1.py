"""Algorithm 1 as the paper runs it, the oracle for the one-cube build.

Section 4.2 computes one ``WITH CUBE`` per aggregate query ``q_j``,
rewrites the cube NULLs to DUMMY, full-outer-joins the m cubes on the
attributes (an explanation missing from a cube gets the aggregate's
empty-input value) and evaluates the μ columns row by row.  Here each
cube is :func:`support.cube.cube_bruteforce` (one row-wise group-by per
grouping set) and μ is :meth:`NumericalQuery.evaluate_environment` per
row, so the oracle shares neither the production cube kernel nor its
column-at-a-time μ evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.cube_algorithm import MU_AGGR, MU_INTERV, ExplanationTable
from repro.core.question import UserQuestion
from repro.engine.aggregates import AggregateSpec
from repro.engine.cube import dummy_rewrite
from repro.engine.database import Database
from repro.engine.joins import full_outer_join_many
from repro.engine.table import Table
from repro.engine.types import NULL, Value, is_null
from repro.engine.universal import universal_table

from support.cube import cube_bruteforce, group_by_rowwise


def per_aggregate_table(
    database: Database,
    question: UserQuestion,
    attributes: Sequence[str],
    *,
    support_threshold: Optional[float] = None,
) -> ExplanationTable:
    """The table *M* from m per-aggregate cubes joined on DUMMY."""
    query = question.query
    u = universal_table(database)
    q_original: Dict[str, Value] = {}
    cubes: List[Table] = []
    for q in query.aggregates:
        source = q.filtered(u)
        q_original[q.name] = group_by_rowwise(source, (), (q.aggregate,)).rows()[0][0]
        spec = AggregateSpec(q.aggregate.kind, q.aggregate.argument, f"v_{q.name}")
        cubes.append(dummy_rewrite(cube_bruteforce(source, attributes, (spec,)), attributes))
    joined = full_outer_join_many(cubes, attributes, fill=NULL)

    defaults = {f"v_{q.name}": q.aggregate.default_value for q in query.aggregates}
    names = list(query.names)
    value_pos = [joined.position(f"v_{name}") for name in names]
    rows = []
    for row in joined.rows():
        row = tuple(
            defaults[col] if col in defaults and is_null(v) else v
            for col, v in zip(joined.columns, row)
        )
        values = {name: row[p] for name, p in zip(names, value_pos)}
        remainders = {
            name: NULL
            if is_null(q_original[name]) or is_null(v)
            else q_original[name] - v
            for name, v in values.items()
        }
        mu_i = query.evaluate_environment(remainders)
        mu_a = query.evaluate_environment(values)
        if not is_null(mu_i):
            mu_i = question.intervention_sign * mu_i
        if not is_null(mu_a):
            mu_a = question.aggravation_sign * mu_a
        if support_threshold is not None and not any(
            not is_null(row[p]) and row[p] >= support_threshold for p in value_pos
        ):
            continue
        rows.append(row + (mu_i, mu_a))
    return ExplanationTable(
        table=Table(list(joined.columns) + [MU_INTERV, MU_AGGR], rows),
        attributes=tuple(attributes),
        aggregate_names=tuple(names),
        q_original=q_original,
    )
