"""Aggregate functions: COUNT(*), COUNT(DISTINCT), SUM, AVG, MIN, MAX.

Each aggregate is a small accumulator object created per group by the
group-by and cube operators.  NULL inputs are ignored (SQL semantics)
except by COUNT(*), which counts rows regardless.

The explanation framework cares about two of these in particular:
``count_star`` and ``count_distinct`` are the aggregates for which the
paper proves intervention-additivity conditions (Section 4.1).

COUNT(*), COUNT(expr), COUNT(DISTINCT expr) and SUM also have
an exact inverse of :meth:`Accumulator.merge`:
:meth:`AggregateSpec.retractable` makes accumulators that support
:meth:`Accumulator.retract`, which is how incremental maintenance
(:mod:`repro.incremental`) takes deleted rows back out of a group.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Type

from ..errors import IncrementalError, QueryError
from .types import NULL, Value, is_null, sql_lt


class Accumulator:
    """One group's running aggregate state.

    Besides the classic per-row :meth:`add`, accumulators support the
    vectorized protocol used by the columnar group-by/cube operators:
    :meth:`add_many` consumes a whole column slice, :meth:`add_repeat`
    consumes ``count`` copies of one value (the COUNT(*) fast path),
    and :meth:`merge` folds another accumulator's state in — which is
    what lets the single-pass cube aggregate each full-dimension group
    once and roll the partial states up into all ``2^d`` grouping sets.
    """

    def add(self, value: Value) -> None:
        """Feed one input value (the value of the aggregate argument)."""
        raise NotImplementedError

    def add_many(self, values: Iterable[Value]) -> None:
        """Feed a column slice (overridden with vectorized loops)."""
        for value in values:
            self.add(value)

    def add_repeat(self, value: Value, count: int) -> None:
        """Feed *count* copies of *value*."""
        for _ in range(count):
            self.add(value)

    def merge(self, other: "Accumulator") -> None:
        """Fold another accumulator of the same kind into this one."""
        raise NotImplementedError

    def retract(self, other: "Accumulator") -> None:
        """Take a state merged in earlier back out (inverse of
        :meth:`merge`); only :meth:`AggregateSpec.retractable`'s
        accumulators can.  Retracting rows never merged in raises
        :class:`~repro.errors.IncrementalError`."""
        raise QueryError(f"{type(self).__name__} cannot retract")

    def result(self) -> Value:
        """The aggregate value for the rows seen so far."""
        raise NotImplementedError


def _conservation(detail: str) -> IncrementalError:
    return IncrementalError(f"retraction {detail}", reason="conservation")


class CountStarAccumulator(Accumulator):
    """COUNT(*): counts every row, including NULL arguments."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Value) -> None:
        self.count += 1

    def add_many(self, values: Iterable[Value]) -> None:
        self.count += sum(1 for _ in values)

    def add_repeat(self, value: Value, count: int) -> None:
        self.count += count

    def merge(self, other: "Accumulator") -> None:
        self.count += other.count  # type: ignore[attr-defined]

    def retract(self, other: "Accumulator") -> None:
        self.count -= other.count  # type: ignore[attr-defined]
        if self.count < 0:
            raise _conservation(f"left a negative count {self.count}")

    def result(self) -> int:
        return self.count


class CountAccumulator(CountStarAccumulator):
    """COUNT(expr): COUNT(*) over the non-NULL arguments alone."""

    def add(self, value: Value) -> None:
        if not is_null(value):
            self.count += 1

    def add_many(self, values: Iterable[Value]) -> None:
        self.count += sum(1 for v in values if not is_null(v))

    def add_repeat(self, value: Value, count: int) -> None:
        if not is_null(value):
            self.count += count


class CountDistinctAccumulator(Accumulator):
    """COUNT(DISTINCT expr): counts distinct non-NULL arguments."""

    def __init__(self) -> None:
        self.seen: Set[Value] = set()

    def add(self, value: Value) -> None:
        if not is_null(value):
            self.seen.add(value)

    def add_many(self, values: Iterable[Value]) -> None:
        self.seen.update(v for v in values if not is_null(v))

    def add_repeat(self, value: Value, count: int) -> None:
        if count > 0 and not is_null(value):
            self.seen.add(value)

    def merge(self, other: "Accumulator") -> None:
        # ``update``, not ``|=``: *other* may be a _DistinctMultiset.
        self.seen.update(other.seen)  # type: ignore[attr-defined]

    def result(self) -> int:
        return len(self.seen)


class _DistinctMultiset(CountDistinctAccumulator):
    """COUNT(DISTINCT expr) over a multiset of values, so it retracts.

    A set forgets how many rows carry a value, and deleting one of two
    witnesses must not drop it.  Only maintained states pay for the
    counts: merging this into a plain accumulator unions the keys.
    """

    def __init__(self) -> None:
        self.seen: Counter = Counter()  # type: ignore[assignment]

    def add(self, value: Value) -> None:
        if not is_null(value):
            self.seen[value] += 1

    def add_many(self, values: Iterable[Value]) -> None:
        self.seen.update(v for v in values if not is_null(v))

    def add_repeat(self, value: Value, count: int) -> None:
        if count > 0 and not is_null(value):
            self.seen[value] += count

    def retract(self, other: "Accumulator") -> None:
        seen = self.seen
        for value, count in other.seen.items():  # type: ignore[attr-defined]
            left = seen[value] - count
            if left < 0:
                raise _conservation(f"of {value!r} left a negative count")
            if left:
                seen[value] = left
            else:
                del seen[value]


class SumAccumulator(Accumulator):
    """SUM(expr): NULL if no non-NULL inputs (SQL semantics).

    The total is exact, so it depends neither on the order rows arrive
    in nor on the tree of :meth:`merge` calls that built it: ints add
    as ints, and each finite float enters as ``n / 2**e``
    (:meth:`float.as_integer_ratio`) into one integer numerator over
    the largest power-of-two denominator seen.  :meth:`result` divides
    once, which rounds correctly — the value ``math.fsum`` returns.
    Infinities and NaNs are counted apart and combine as IEEE 754 adds
    them.  A sum over ints alone stays an int.  Because every part is an
    integer, :meth:`retract` is the exact inverse of :meth:`merge`.
    """

    _kind = "SUM"

    def __init__(self) -> None:
        self.count = 0  # non-NULL inputs
        self.floats = 0  # of which floats: the result is a float iff > 0
        self.ints = 0  # exact sum of the int inputs
        self.num = 0  # the finite float inputs sum to num / 2**exp
        self.exp = 0
        self.inf = 0  # +inf, -inf and NaN inputs
        self.ninf = 0
        self.nan = 0

    def add(self, value: Value) -> None:
        self.add_repeat(value, 1)

    def add_repeat(self, value: Value, count: int) -> None:
        if count <= 0 or is_null(value):
            return
        if isinstance(value, float):
            self._add_float(value, count)
        elif isinstance(value, int):
            self.ints += value * count
        else:
            raise QueryError(f"{self._kind} over non-numeric value {value!r}")
        self.count += count

    def _add_float(self, value: float, count: int) -> None:
        self.floats += count
        try:
            num, den = value.as_integer_ratio()
        except OverflowError:
            if value > 0:
                self.inf += count
            else:
                self.ninf += count
        except ValueError:
            self.nan += count
        else:
            self._add_fraction(num * count, den.bit_length() - 1)

    def _add_fraction(self, num: int, exp: int) -> None:
        """Add ``num / 2**exp`` to the float part."""
        if exp > self.exp:
            self.num <<= exp - self.exp
            self.exp = exp
        self.num += num << (self.exp - exp)

    def _fold(self, other: "SumAccumulator", sign: int) -> None:
        self.count += sign * other.count
        self.floats += sign * other.floats
        self.ints += sign * other.ints
        self._add_fraction(sign * other.num, other.exp)
        self.inf += sign * other.inf
        self.ninf += sign * other.ninf
        self.nan += sign * other.nan

    def merge(self, other: "Accumulator") -> None:
        if other.count:  # type: ignore[attr-defined]
            self._fold(other, 1)  # type: ignore[arg-type]

    def retract(self, other: "Accumulator") -> None:
        self._fold(other, -1)  # type: ignore[arg-type]
        parts = (self.floats, self.inf, self.ninf, self.nan)
        if min(self.count, *parts) < 0 or (
            self.count == 0 and (self.ints or self.num or any(parts))
        ):
            raise _conservation(
                f"left {self.count} values summing to {self._total()}"
            )

    def _total(self, count: int = 1) -> Value:
        """The exact total divided by *count*, rounded once."""
        if self.nan or (self.inf and self.ninf):
            return math.nan
        if self.inf or self.ninf:
            return math.inf if self.inf else -math.inf
        return _divide(
            (self.ints << self.exp) + self.num, count << self.exp
        )

    def result(self) -> Value:
        if not self.count:
            return NULL
        return self._total() if self.floats else self.ints


def _divide(num: int, den: int) -> float:
    """``num / den`` correctly rounded, ±inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


class AvgAccumulator(SumAccumulator):
    """AVG(expr): the exact SUM divided by the count, rounded once;
    NULL if no non-NULL inputs."""

    _kind = "AVG"

    def result(self) -> Value:
        if not self.count:
            return NULL
        if not self.floats:
            return self.ints / self.count
        return self._total(self.count)


class MinAccumulator(Accumulator):
    """MIN(expr) under the engine's total order, NULLs ignored."""

    def __init__(self) -> None:
        self.best: Value = NULL

    def add(self, value: Value) -> None:
        if is_null(value):
            return
        if is_null(self.best) or sql_lt(value, self.best):
            self.best = value

    def add_repeat(self, value: Value, count: int) -> None:
        if count > 0:
            self.add(value)

    def merge(self, other: "Accumulator") -> None:
        self.add(other.best)  # type: ignore[attr-defined]

    def result(self) -> Value:
        return self.best


class MaxAccumulator(Accumulator):
    """MAX(expr) under the engine's total order, NULLs ignored."""

    def __init__(self) -> None:
        self.best: Value = NULL

    def add(self, value: Value) -> None:
        if is_null(value):
            return
        if is_null(self.best) or sql_lt(self.best, value):
            self.best = value

    def add_repeat(self, value: Value, count: int) -> None:
        if count > 0:
            self.add(value)

    def merge(self, other: "Accumulator") -> None:
        self.add(other.best)  # type: ignore[attr-defined]

    def result(self) -> Value:
        return self.best


_FACTORIES = {
    "count_star": CountStarAccumulator,
    "count": CountAccumulator,
    "count_distinct": CountDistinctAccumulator,
    "sum": SumAccumulator,
    "avg": AvgAccumulator,
    "min": MinAccumulator,
    "max": MaxAccumulator,
}

AGGREGATE_KINDS = tuple(_FACTORIES)

#: Accumulators with an exact :meth:`Accumulator.retract`, by kind.
_RETRACTABLE: Dict[str, Type[Accumulator]] = {
    "count_star": CountStarAccumulator,
    "count": CountAccumulator,
    "count_distinct": _DistinctMultiset,
    "sum": SumAccumulator,
}


@dataclass(frozen=True)
class AggregateSpec:
    """Specification of one aggregate column.

    ``kind`` is one of :data:`AGGREGATE_KINDS`; ``argument`` is the
    input column (ignored — and allowed to be None — for
    ``count_star``); ``alias`` names the output column.
    """

    kind: str
    argument: Optional[str]
    alias: str

    def __post_init__(self) -> None:
        if self.kind not in _FACTORIES:
            raise QueryError(
                f"unknown aggregate {self.kind!r}; choose from {AGGREGATE_KINDS}"
            )
        if self.kind != "count_star" and self.argument is None:
            raise QueryError(f"aggregate {self.kind} requires an argument column")
        if not self.alias:
            raise QueryError("aggregate needs a non-empty alias")

    def make_accumulator(self) -> Accumulator:
        """A fresh accumulator for one group."""
        return _FACTORIES[self.kind]()

    def retractable(self) -> "AggregateSpec":
        """This aggregate, with accumulators that support
        :meth:`Accumulator.retract`.

        COUNT(DISTINCT) keeps a multiset instead of a set; SUM's exact
        total retracts as it is.  AVG, MIN and MAX are not offered:
        asking for them raises :class:`~repro.errors.QueryError`.
        """
        if self.kind not in _RETRACTABLE:
            raise QueryError(f"aggregate {self.kind} cannot retract")
        return _RetractableSpec(self.kind, self.argument, self.alias)

    @property
    def default_value(self) -> Value:
        """Value of this aggregate over an empty input.

        Counts are 0 over the empty set; the others are NULL.  Used by
        Algorithm 1 when an explanation is missing from a cube.
        """
        if self.kind in ("count_star", "count", "count_distinct"):
            return 0
        return NULL

    def __str__(self) -> str:
        if self.kind == "count_star":
            return f"count(*) AS {self.alias}"
        if self.kind == "count_distinct":
            return f"count(distinct {self.argument}) AS {self.alias}"
        return f"{self.kind}({self.argument}) AS {self.alias}"


@dataclass(frozen=True)
class _RetractableSpec(AggregateSpec):
    """An :class:`AggregateSpec` whose accumulators can retract."""

    def make_accumulator(self) -> Accumulator:
        return _RETRACTABLE[self.kind]()


def count_star(alias: str = "value") -> AggregateSpec:
    """COUNT(*) spec."""
    return AggregateSpec("count_star", None, alias)


def count_distinct(argument: str, alias: str = "value") -> AggregateSpec:
    """COUNT(DISTINCT argument) spec."""
    return AggregateSpec("count_distinct", argument, alias)


def agg_sum(argument: str, alias: str = "value") -> AggregateSpec:
    """SUM(argument) spec."""
    return AggregateSpec("sum", argument, alias)


def agg_avg(argument: str, alias: str = "value") -> AggregateSpec:
    """AVG(argument) spec."""
    return AggregateSpec("avg", argument, alias)


def agg_min(argument: str, alias: str = "value") -> AggregateSpec:
    """MIN(argument) spec."""
    return AggregateSpec("min", argument, alias)


def agg_max(argument: str, alias: str = "value") -> AggregateSpec:
    """MAX(argument) spec."""
    return AggregateSpec("max", argument, alias)
