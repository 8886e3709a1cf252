"""Numerical queries ``Q = E(q_1, …, q_m)`` (Eq. (1) of the paper).

Each :class:`AggregateQuery` ``q_j`` is a single-aggregate SQL query
over the universal relation: an aggregate spec (count(*),
count(distinct col), sum, …) plus an optional WHERE predicate over the
qualified universal columns.  A :class:`NumericalQuery` combines the
``q_j`` values with an arithmetic expression ``E`` built from the
engine expression AST (``+ - * /`` plus ``log``/``exp``), referencing
each aggregate by its name.

The module also provides the ratio builders used throughout the
evaluation section (``q1/q2`` and the double ratio
``(q1/q2)/(q3/q4)``), including the small-epsilon smoothing the paper
applies to avoid division by zero (Section 5.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..engine.aggregates import AggregateSpec
from ..engine.expressions import Arithmetic, Col, Const, Expression
from ..engine.groupby import scalar_aggregate
from ..engine.table import Table
from ..engine.types import Value
from ..errors import QueryError


@dataclass(frozen=True)
class AggregateQuery:
    """One single-aggregate query ``q_j`` over the universal relation.

    ``name`` identifies the query inside the numerical expression E;
    ``aggregate`` is the engine aggregate spec whose ``argument`` (if
    any) must be a qualified universal column; ``where`` filters
    universal rows before aggregation (None = no filter).
    """

    name: str
    aggregate: AggregateSpec
    where: Optional[Expression] = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise QueryError(f"aggregate query name {self.name!r} must be an identifier")

    def evaluate(self, universal: Table) -> Value:
        """Evaluate on a materialized universal table."""
        return scalar_aggregate(self.filtered(universal), self.aggregate)

    def filtered(self, universal: Table) -> Table:
        """The universal rows that feed this aggregate."""
        return universal if self.where is None else universal.filter(self.where)

    def __str__(self) -> str:
        where = f" WHERE {self.where}" if self.where is not None else ""
        return f"{self.name}: SELECT {self.aggregate} FROM U{where}"  # reprolint: disable=RL006 (human-readable repr, never executed as SQL)


@dataclass(frozen=True)
class NumericalQuery:
    """``Q = E(q_1, …, q_m)`` — an arithmetic expression over aggregates.

    ``expression`` references aggregates as columns named after each
    :class:`AggregateQuery`.  ``Q(D)`` is computed by evaluating every
    aggregate on the universal table, then the expression on the
    resulting environment.
    """

    aggregates: Tuple[AggregateQuery, ...]
    expression: Expression

    def __post_init__(self) -> None:
        names = [q.name for q in self.aggregates]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate aggregate query names: {names}")
        unknown = set(self.expression.columns()) - set(names)
        if unknown:
            raise QueryError(
                f"expression references unknown aggregates: {sorted(unknown)}"
            )

    @property
    def names(self) -> Tuple[str, ...]:
        """Names of the component aggregate queries, in order."""
        return tuple(q.name for q in self.aggregates)

    def evaluate_environment(self, values: Mapping[str, Value]) -> Value:
        """Evaluate E given per-aggregate values."""
        return self.expression.evaluate(values)

    def evaluate_universal(self, universal: Table) -> Value:
        """``Q`` on a materialized universal table."""
        env = {q.name: q.evaluate(universal) for q in self.aggregates}
        return self.expression.evaluate(env)

    def aggregate_values(self, universal: Table) -> Dict[str, Value]:
        """All ``q_j`` values on a universal table (the u_j of Alg. 1)."""
        return {q.name: q.evaluate(universal) for q in self.aggregates}

    def __str__(self) -> str:
        parts = "; ".join(str(q) for q in self.aggregates)
        return f"Q = {self.expression}  with  {parts}"


def _smooth(name: str, epsilon: float) -> Expression:
    """``q + epsilon`` — the paper's division-by-zero guard."""
    if epsilon == 0:
        return Col(name)
    return Arithmetic("+", Col(name), Const(epsilon))


def ratio_query(
    numerator: AggregateQuery,
    denominator: AggregateQuery,
    *,
    epsilon: float = 0.0,
) -> NumericalQuery:
    """``Q = q1 / q2`` with optional epsilon smoothing of both counts."""
    expr = Arithmetic(
        "/", _smooth(numerator.name, epsilon), _smooth(denominator.name, epsilon)
    )
    return NumericalQuery((numerator, denominator), expr)


def double_ratio_query(
    q1: AggregateQuery,
    q2: AggregateQuery,
    q3: AggregateQuery,
    q4: AggregateQuery,
    *,
    epsilon: float = 0.0,
) -> NumericalQuery:
    """``Q = (q1/q2) / (q3/q4)`` — the running-example shape.

    This is the paper's bump query (Section 2, Example 2.2) and
    Q_Marital (Section 5.1): the ratio of two ratios.
    """
    top = Arithmetic("/", _smooth(q1.name, epsilon), _smooth(q2.name, epsilon))
    bottom = Arithmetic("/", _smooth(q3.name, epsilon), _smooth(q4.name, epsilon))
    expr = Arithmetic("/", top, bottom)
    return NumericalQuery((q1, q2, q3, q4), expr)


def single_query(aggregate: AggregateQuery) -> NumericalQuery:
    """``Q = q1`` — a bare aggregate as a numerical query."""
    return NumericalQuery((aggregate,), Col(aggregate.name))


def regression_slope_query(
    series: Sequence[AggregateQuery],
) -> NumericalQuery:
    """Slope of the least-squares line through ``(j, q_j)`` points.

    Section 6(iv): "why is this sequence of bars increasing?" becomes
    "why is the slope of the linear regression of these datapoints
    positive?".  For x = 0..m-1 the OLS slope is
    ``Σ (x_j - x̄) q_j / Σ (x_j - x̄)²`` — a linear combination of the
    aggregates, hence expressible in E with + - * / only.
    """
    m = len(series)
    if m < 2:
        raise QueryError("regression slope needs at least two aggregates")
    mean_x = (m - 1) / 2
    denom = sum((j - mean_x) ** 2 for j in range(m))
    expr: Optional[Expression] = None
    for j, q in enumerate(series):
        weight = (j - mean_x) / denom
        term = Arithmetic("*", Const(weight), Col(q.name))
        expr = term if expr is None else Arithmetic("+", expr, term)
    assert expr is not None
    return NumericalQuery(tuple(series), expr)
