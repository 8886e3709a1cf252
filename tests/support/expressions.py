"""Row-at-a-time predicate compiler.

The reference for :func:`repro.engine.expressions.select_positions`,
which is what :meth:`~repro.engine.table.Table.filter` runs: the
property suite holds the two equal.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.engine.expressions import And, Col, Comparison, Const, Expression, Not, Or
from repro.engine.types import Value, sql_eq, sql_ge, sql_gt, sql_le, sql_lt, sql_ne
from repro.errors import QueryError

_COMPARATORS: Dict[str, Callable[[Value, Value], bool]] = {
    "=": sql_eq,
    "<>": sql_ne,
    "!=": sql_ne,
    "<": sql_lt,
    "<=": sql_le,
    ">": sql_gt,
    ">=": sql_ge,
}


def compile_predicate(expr: Expression, columns: Sequence[str]):
    """Compile a boolean expression into a fast ``row -> bool`` callable.

    The row-at-a-time reference for :func:`select_positions`, which is
    what :meth:`~repro.engine.table.Table.filter` runs; the property
    suite holds the two equal.  Column references become direct
    positional accesses, avoiding the per-row environment dict that
    :meth:`Expression.evaluate` needs.
    Supported nodes: :class:`Comparison` over :class:`Col`/:class:`Const`
    operands, :class:`And`, :class:`Or`, :class:`Not`.  Anything else
    falls back to environment-based evaluation (still correct, just
    slower).  Raises :class:`~repro.errors.QueryError` for unknown
    columns, like the interpreted path.
    """
    positions = {c: i for i, c in enumerate(columns)}

    def fallback(node: Expression):
        cols = list(columns)
        return lambda row: node.evaluate(dict(zip(cols, row)))

    def build(node: Expression):
        if isinstance(node, Comparison):
            op = _COMPARATORS[node.op]
            left, right = node.left, node.right
            if isinstance(left, Col) and isinstance(right, Const):
                if left.name not in positions:
                    raise QueryError(
                        f"unknown column {left.name!r} in expression"
                    )
                i = positions[left.name]
                c = right.value
                return lambda row: op(row[i], c)
            if isinstance(left, Const) and isinstance(right, Col):
                if right.name not in positions:
                    raise QueryError(
                        f"unknown column {right.name!r} in expression"
                    )
                i = positions[right.name]
                c = left.value
                return lambda row: op(c, row[i])
            if isinstance(left, Col) and isinstance(right, Col):
                for name in (left.name, right.name):
                    if name not in positions:
                        raise QueryError(
                            f"unknown column {name!r} in expression"
                        )
                i, j = positions[left.name], positions[right.name]
                return lambda row: op(row[i], row[j])
            return fallback(node)
        if isinstance(node, And):
            parts = [build(op_) for op_ in node.operands]
            if not parts:
                return lambda row: True
            return lambda row: all(p(row) for p in parts)
        if isinstance(node, Or):
            parts = [build(op_) for op_ in node.operands]
            if not parts:
                return lambda row: False
            return lambda row: any(p(row) for p in parts)
        if isinstance(node, Not):
            inner = build(node.operand)
            return lambda row: not inner(row)
        return fallback(node)

    return build(expr)
