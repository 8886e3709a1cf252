"""Scalar and boolean expression AST evaluated against named rows.

Expressions are evaluated against an *environment*: a mapping from
column names to values (a row of the universal relation, a cube row,
or a joined row), or over many rows at once given column-wise
(:meth:`Expression.evaluate_columns`, through the same scalar
functions).  The AST supports the numeric operators the paper
allows in numerical query expressions ``E`` (``+ - * / log exp``,
Eq. (1)) plus comparisons and boolean connectives used by candidate
explanation predicates.

NULL propagates through arithmetic (any NULL operand yields NULL) and
makes comparisons false, mirroring SQL three-valued logic collapsed to
two values (UNKNOWN is treated as false at filter boundaries, which is
the only place the engine consumes booleans).
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import QueryError
from .columnstore import Column, typed_column
from .types import (
    NULL,
    Value,
    sql_eq,
    sql_ge,
    sql_gt,
    sql_le,
    sql_lt,
    sql_ne,
)

Environment = Mapping[str, Value]


class Expression:
    """Base class for all expression nodes."""

    def evaluate(self, env: Environment) -> Value:
        """Evaluate this expression against *env*."""
        raise NotImplementedError

    def columns(self) -> Tuple[str, ...]:
        """All column names referenced by this expression."""
        raise NotImplementedError

    def evaluate_columns(
        self, columns: Mapping[str, Sequence[Value]], nrows: int
    ) -> Column:
        """:meth:`evaluate` on each of *nrows* environments given column-wise.

        Row ``i``'s environment maps each name to ``columns[name][i]``.
        Constants, columns and arithmetic evaluate one column at a time
        through the same scalar functions as :meth:`evaluate` (or, for
        arithmetic over plain ints and floats, the bare operator those
        functions apply); any other node builds an environment per row.

        A result known to hold only floats, or only ints, comes back as
        a typed column (:func:`~repro.engine.columnstore.typed_column`),
        and a typed column in *columns* is known to hold plain numbers
        without a scan of its cells.
        """
        values, typecode = self._evaluate_typed(columns, nrows)
        return typed_column(values, typecode) if typecode else values

    def _evaluate_typed(
        self, columns: Mapping[str, Sequence[Value]], nrows: int
    ) -> Tuple[Sequence[Value], str]:
        """:meth:`evaluate_columns`' cells, and ``"d"`` when every one is
        known to be a float, ``"q"`` when every one is known to be an
        int (not a bool), else ``""``.  Inner nodes hand their cells up
        as they are, so only the root's are ever put in an array."""
        names = self.columns()
        if not names:
            return [self.evaluate({})] * nrows, ""
        cols = [Col(name)._evaluate_typed(columns, nrows)[0] for name in names]
        return [self.evaluate(dict(zip(names, vals))) for vals in zip(*cols)], ""

    # Operator sugar so expressions compose naturally: Col("x") + 1 etc.
    def __add__(self, other: "ExpressionLike") -> "Arithmetic":
        return Arithmetic("+", self, lift(other))

    def __radd__(self, other: "ExpressionLike") -> "Arithmetic":
        return Arithmetic("+", lift(other), self)

    def __sub__(self, other: "ExpressionLike") -> "Arithmetic":
        return Arithmetic("-", self, lift(other))

    def __rsub__(self, other: "ExpressionLike") -> "Arithmetic":
        return Arithmetic("-", lift(other), self)

    def __mul__(self, other: "ExpressionLike") -> "Arithmetic":
        return Arithmetic("*", self, lift(other))

    def __rmul__(self, other: "ExpressionLike") -> "Arithmetic":
        return Arithmetic("*", lift(other), self)

    def __truediv__(self, other: "ExpressionLike") -> "Arithmetic":
        return Arithmetic("/", self, lift(other))

    def __rtruediv__(self, other: "ExpressionLike") -> "Arithmetic":
        return Arithmetic("/", lift(other), self)

    def eq(self, other: "ExpressionLike") -> "Comparison":
        """``self = other`` comparison node."""
        return Comparison("=", self, lift(other))

    def ne(self, other: "ExpressionLike") -> "Comparison":
        """``self <> other`` comparison node."""
        return Comparison("<>", self, lift(other))

    def lt(self, other: "ExpressionLike") -> "Comparison":
        """``self < other`` comparison node."""
        return Comparison("<", self, lift(other))

    def le(self, other: "ExpressionLike") -> "Comparison":
        """``self <= other`` comparison node."""
        return Comparison("<=", self, lift(other))

    def gt(self, other: "ExpressionLike") -> "Comparison":
        """``self > other`` comparison node."""
        return Comparison(">", self, lift(other))

    def ge(self, other: "ExpressionLike") -> "Comparison":
        """``self >= other`` comparison node."""
        return Comparison(">=", self, lift(other))


ExpressionLike = Union[Expression, int, float, str, bool]


def lift(value: ExpressionLike) -> Expression:
    """Wrap a plain Python value into a :class:`Const` node."""
    if isinstance(value, Expression):
        return value
    return Const(value)


@dataclass(frozen=True)
class Const(Expression):
    """A literal constant."""

    value: Value

    def evaluate(self, env: Environment) -> Value:
        return self.value

    def _evaluate_typed(
        self, columns: Mapping[str, Sequence[Value]], nrows: int
    ) -> Tuple[Sequence[Value], str]:
        return [self.value] * nrows, _TYPECODES.get(self.value.__class__, "")

    def columns(self) -> Tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Col(Expression):
    """A reference to a named column of the environment row."""

    name: str

    def evaluate(self, env: Environment) -> Value:
        try:
            return env[self.name]
        except KeyError:
            raise QueryError(f"unknown column {self.name!r} in expression") from None

    def _evaluate_typed(
        self, columns: Mapping[str, Sequence[Value]], nrows: int
    ) -> Tuple[Sequence[Value], str]:
        try:
            column = columns[self.name]
        except KeyError:
            raise QueryError(f"unknown column {self.name!r} in expression") from None
        if isinstance(column, array) and column.typecode in ("d", "q"):
            return column, column.typecode  # read-only, so not copied
        return list(column), ""

    def columns(self) -> Tuple[str, ...]:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


_ARITH_OPS: Dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

#: Operand types on which ``_ARITH_OPS`` is exactly :func:`_arithmetic`
#: (once no divisor is zero); ``bool`` is not among them.
_PLAIN_NUMBERS = frozenset((int, float))

#: The typecode a column of one plain number type is known by.
_TYPECODES = {float: "d", int: "q"}


def _plain(column: Sequence[Value], typecode: str) -> bool:
    """Whether every cell is an int or a float: known from *typecode*,
    or else read off the cells."""
    return bool(typecode) or set(map(type, column)) <= _PLAIN_NUMBERS


def _arithmetic(op: str, a: Value, b: Value) -> Value:
    """``a op b`` on one pair of values: NULL in, NULL out; ``x/0`` is
    ±inf and ``0/0`` NULL; a non-numeric operand raises."""
    if a is NULL or b is NULL:
        return NULL
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise QueryError(f"arithmetic {op} on non-numeric values {a!r}, {b!r}")
    if op == "/" and b == 0:
        if a == 0:
            return NULL
        return math.inf if a > 0 else -math.inf
    return _ARITH_OPS[op](a, b)


@dataclass(frozen=True)
class Arithmetic(Expression):
    """A binary arithmetic node (+, -, *, /).

    Division follows the paper's experimental setup: the evaluation
    section adds a small epsilon to counts to avoid division by zero,
    so callers who want that behaviour add the epsilon explicitly;
    the raw operator returns ``float('inf')`` (matching the paper's
    reported "infinity" aggravation degrees) when dividing a positive
    number by zero, and NULL for 0/0.
    """

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise QueryError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, env: Environment) -> Value:
        return _arithmetic(
            self.op, self.left.evaluate(env), self.right.evaluate(env)
        )

    def _evaluate_typed(
        self, columns: Mapping[str, Sequence[Value]], nrows: int
    ) -> Tuple[Sequence[Value], str]:
        """Column at a time; when both operands hold only ``int`` and
        ``float`` (and no divisor is zero) the operator maps straight
        over them, since :func:`_arithmetic` is then that operator.  An
        operand whose type is known (a typed column, a constant, an
        inner node's result) is not scanned.  A quotient, or a result
        with a float operand, is all floats; ints combine into ints."""
        left, left_code = self.left._evaluate_typed(columns, nrows)
        right, right_code = self.right._evaluate_typed(columns, nrows)
        if (
            _plain(left, left_code)
            and _plain(right, right_code)
            and (self.op != "/" or 0 not in right)
        ):
            values = list(map(_ARITH_OPS[self.op], left, right))
            if self.op == "/" or "d" in (left_code, right_code):
                return values, "d"
            return values, "q" if left_code == right_code == "q" else ""
        return list(map(_arithmetic, repeat(self.op), left, right)), ""

    def columns(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.left.columns() + self.right.columns()))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def _unary(op: str, v: Value) -> Value:
    """``op(v)`` on one value: NULL in, NULL out; ``log`` of a
    non-positive value is NULL; a non-numeric operand raises."""
    if v is NULL:
        return NULL
    if not isinstance(v, (int, float)):
        raise QueryError(f"unary {op} on non-numeric value {v!r}")
    if op == "neg":
        return -v
    if op == "abs":
        return abs(v)
    if op == "exp":
        return math.exp(v)
    # log: NULL for non-positive arguments (SQL would error; the
    # explanation ranking treats undefined degrees as missing).
    if v <= 0:
        return NULL
    return math.log(v)


@dataclass(frozen=True)
class Unary(Expression):
    """A unary function node: ``-x``, ``log(x)``, ``exp(x)``, ``abs(x)``."""

    op: str
    operand: Expression

    def __post_init__(self) -> None:
        if self.op not in ("neg", "log", "exp", "abs"):
            raise QueryError(f"unknown unary operator {self.op!r}")

    def evaluate(self, env: Environment) -> Value:
        return _unary(self.op, self.operand.evaluate(env))

    def _evaluate_typed(
        self, columns: Mapping[str, Sequence[Value]], nrows: int
    ) -> Tuple[Sequence[Value], str]:
        operand = self.operand._evaluate_typed(columns, nrows)[0]
        return list(map(_unary, repeat(self.op), operand)), ""

    def columns(self) -> Tuple[str, ...]:
        return self.operand.columns()

    def __str__(self) -> str:
        if self.op == "neg":
            return f"(-{self.operand})"
        return f"{self.op}({self.operand})"


def neg(expr: ExpressionLike) -> Unary:
    """Arithmetic negation node."""
    return Unary("neg", lift(expr))


def log(expr: ExpressionLike) -> Unary:
    """Natural logarithm node (NULL on non-positive input)."""
    return Unary("log", lift(expr))


def exp(expr: ExpressionLike) -> Unary:
    """Exponential node."""
    return Unary("exp", lift(expr))


_COMPARATORS: Dict[str, Callable[[Value, Value], bool]] = {
    "=": sql_eq,
    "<>": sql_ne,
    "!=": sql_ne,
    "<": sql_lt,
    "<=": sql_le,
    ">": sql_gt,
    ">=": sql_ge,
}

COMPARISON_OPS = tuple(_COMPARATORS)


@dataclass(frozen=True)
class Comparison(Expression):
    """A comparison node producing a boolean (NULL-safe: NULL -> False)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, env: Environment) -> bool:
        return _COMPARATORS[self.op](
            self.left.evaluate(env), self.right.evaluate(env)
        )

    def columns(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.left.columns() + self.right.columns()))

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Expression):
    """Boolean conjunction over any number of operands (empty = True)."""

    operands: Tuple[Expression, ...]

    def evaluate(self, env: Environment) -> bool:
        return all(op.evaluate(env) for op in self.operands)

    def columns(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for op in self.operands:
            for c in op.columns():
                seen.setdefault(c)
        return tuple(seen)

    def __str__(self) -> str:
        if not self.operands:
            return "TRUE"
        return " AND ".join(f"({op})" for op in self.operands)


@dataclass(frozen=True)
class Or(Expression):
    """Boolean disjunction over any number of operands (empty = False)."""

    operands: Tuple[Expression, ...]

    def evaluate(self, env: Environment) -> bool:
        return any(op.evaluate(env) for op in self.operands)

    def columns(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for op in self.operands:
            for c in op.columns():
                seen.setdefault(c)
        return tuple(seen)

    def __str__(self) -> str:
        if not self.operands:
            return "FALSE"
        return " OR ".join(f"({op})" for op in self.operands)


@dataclass(frozen=True)
class Not(Expression):
    """Boolean negation."""

    operand: Expression

    def evaluate(self, env: Environment) -> bool:
        return not self.operand.evaluate(env)

    def columns(self) -> Tuple[str, ...]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


def conj(*operands: Expression) -> Expression:
    """Conjunction helper that flattens nested Ands."""
    flat = []
    for op in operands:
        if isinstance(op, And):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*operands: Expression) -> Expression:
    """Disjunction helper that flattens nested Ors."""
    flat = []
    for op in operands:
        if isinstance(op, Or):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


#: ``postings(name, constant)``: the ascending positions whose *name*
#: cell equals the (non-NULL, non-NaN) *constant*.
Postings = Callable[[str, Value], Sequence[int]]


def select_positions(
    expr: Expression,
    column: Callable[[str], Sequence[Value]],
    nrows: int,
    postings: Optional[Postings] = None,
) -> List[int]:
    """Row positions (ascending) where the boolean *expr* holds.

    Semantics match :meth:`Expression.evaluate` at a filter boundary
    (the test suite holds this equal to a row-wise reference): NULL
    compares false, :class:`Not` is two-valued
    and any node other than a comparison of columns and constants or a
    connective is evaluated on an environment per row.  *column* maps a
    column name to its values (all *nrows* of them).

    A comparison is one pass over its column; an :class:`And` narrows a
    candidate list one conjunct at a time, and an :class:`Or` tests each
    disjunct only on the rows no earlier one accepted — so, as in the
    row-wise short-circuit, a node is evaluated on exactly the rows the
    row-wise path would evaluate it on.

    With *postings*, a top-level ``Col = Const``, or the leading run of
    such conjuncts of a top-level :class:`And`, seeds the candidate list
    with the smallest of their postings instead of every row.  Those
    equalities cannot raise, and every conjunct still narrows the list
    as above, so each later conjunct sees the rows it would see without
    *postings*.
    """

    def index(cand: Optional[List[int]]) -> Sequence[int]:
        return range(nrows) if cand is None else cand

    def values(name: str, cand: Optional[List[int]]) -> Iterable[Value]:
        col = column(name)
        return col if cand is None else map(col.__getitem__, cand)

    def select(node: Expression, cand: Optional[List[int]]) -> List[int]:
        # cand is None for "every row"; otherwise ascending positions.
        if cand is not None and not cand or nrows == 0:
            return []
        if isinstance(node, Comparison):
            left, right = node.left, node.right
            if isinstance(left, Col) and isinstance(right, Const):
                return _compare_const(
                    node.op, values(left.name, cand), right.value, index(cand), False
                )
            if isinstance(left, Const) and isinstance(right, Col):
                return _compare_const(
                    node.op, values(right.name, cand), left.value, index(cand), True
                )
            if isinstance(left, Col) and isinstance(right, Col):
                op = _COMPARATORS[node.op]
                return [
                    i
                    for i, a, b in zip(
                        index(cand),
                        values(left.name, cand),
                        values(right.name, cand),
                    )
                    if op(a, b)
                ]
            # Any other comparison (over arithmetic, say) is evaluated
            # per row below.
        elif isinstance(node, And):
            for operand in node.operands:
                cand = select(operand, cand)
                if not cand:
                    return []
            return list(range(nrows)) if cand is None else cand
        elif isinstance(node, Or):
            accepted: Set[int] = set()
            remaining = cand
            for operand in node.operands:
                hits = select(operand, remaining)
                if hits:
                    accepted.update(hits)
                    remaining = [i for i in index(remaining) if i not in accepted]
            return [i for i in index(cand) if i in accepted]
        elif isinstance(node, Not):
            inner = set(select(node.operand, cand))
            return [i for i in index(cand) if i not in inner]
        names = node.columns()
        if not names:
            return list(index(cand)) if node.evaluate({}) else []
        rows = zip(*(values(name, cand) for name in names))
        return [
            i
            for i, vals in zip(index(cand), rows)
            if node.evaluate(dict(zip(names, vals)))
        ]

    if postings is not None:
        seeds = []
        for node in expr.operands if isinstance(expr, And) else (expr,):
            equality = _equality(node)
            if equality is None:
                break
            seeds.append(postings(*equality))
        if seeds:
            return select(expr, list(min(seeds, key=len)))
    return select(expr, None)


def _equality(node: Expression) -> Optional[Tuple[str, Value]]:
    """``(name, constant)`` when *node* is ``Col = Const`` (either way
    round) and a posting answers it: the constant is not NULL or NaN."""
    if not (isinstance(node, Comparison) and node.op == "="):
        return None
    left, right = node.left, node.right
    if isinstance(left, Const):
        left, right = right, left
    if not (isinstance(left, Col) and isinstance(right, Const)):
        return None
    constant = right.value
    if constant is NULL or constant != constant:
        return None
    return left.name, constant


def _compare_const(
    op: str,
    column: Iterable[Value],
    constant: Value,
    positions: Iterable[int],
    constant_first: bool,
) -> List[int]:
    """Positions where ``column op constant`` (or ``constant op column``).

    Against a non-NULL constant, ``=`` is plain ``==``: NULL equals only
    itself, so that is exactly :func:`sql_eq`.
    """
    if constant is NULL:
        return []
    fn = operator.eq if op == "=" else _COMPARATORS[op]
    if constant_first:
        hits = map(fn, repeat(constant), column)
    else:
        hits = map(fn, column, repeat(constant))
    return list(compress(positions, hits))
