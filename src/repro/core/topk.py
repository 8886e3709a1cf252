"""Top-K explanation strategies over the table *M* (Section 4.3).

An explanation φ is *minimal* when no strictly more general
explanation φ' (its non-dummy (attribute, value) pairs a proper subset
of φ's) has degree ≥ φ's.  Three strategies are implemented, matching
the paper's Figure 14 comparison:

* **No-Minimal** — a plain top-K by degree; may output redundant
  (dominated) explanations.
* **Minimal-self-join** — mark dominated rows via a (hash) self-join
  of M with itself on the generalization relation, then top-K the
  survivors.
* **Minimal-append** — K rounds of top-1; after outputting φ, the
  predicate ``¬φ`` is appended to the WHERE clause, pruning every
  remaining specialization of φ (all of which are dominated, because
  remaining rows have degree ≤ φ's).  Ties prefer shorter explanations
  because the DUMMY marker sorts above every real value.

All strategies skip the trivial all-dummy explanation (and rows whose
degree is undefined).

Footnote 12 of the paper notes an alternative reading of minimality
that prefers *specific* explanations (more conditions, matched by
fewer tuples) over general ones, and says the system supports both.
Every strategy here takes ``minimality="general"`` (the default,
used in the paper's experiments) or ``minimality="specific"``:

* **general** — φ is dominated by a strict *generalization* with
  degree ≥ φ's; ties prefer fewer conditions (DUMMY sorts high).
* **specific** — φ is dominated by a strict *specialization* with
  degree ≥ φ's; ties prefer more conditions.

One order per (*M*, degree, minimality)
---------------------------------------
The three strategies rank by one key — degree descending, then the
condition count (fewer first under ``general``, more under
``specific``), then the attribute values descending under
:func:`~repro.engine.types.sort_key` — so each is a walk of one
best-first order of *M*'s eligible row positions, ties kept in *M*'s
row order:

* No-Minimal takes the first k positions;
* Minimal-self-join the first k not flagged by the self-join;
* Minimal-append the first k that satisfy no earlier output's φ
  (general), or whose pairs no earlier output's pairs contain
  (specific).

The last is exactly K rounds of top-1 with ``¬φ`` appended: every
position ahead of the walk's next pick was output or pruned, and the
pick is the first maximum of the rows still remaining, which is what
``max`` over them in *M*'s order returns.

The order is built lazily, in proportion to the walk (the point of
Fig 14's K rounds of top-1: the dominated tail is never looked at).
:class:`BestFirstOrder` sorts the positions with a defined degree once,
by the degree alone — by the values themselves when they are all plain
ints and floats, else by codes ordered as ``sort_key`` orders them,
every NaN in one place below the numbers.  A typed degree column
(``array('q')``, or ``array('d')`` without a NaN) is known to be plain
without a scan of its cells.  A *run* is the positions
that share one degree.  When a walk first reaches a run, the run is
*refined*: filtered to positions with a real condition and ordered by
condition count and attribute values.  Rows are built only for the K
outputs.

One :class:`BestFirstOrder` per (degree column, minimality), and the
self-join's flags, are memoised on the :class:`ExplanationTable` and
live exactly as long as *M*: the table is immutable, an incremental
refresh emits a new one, so nothing invalidates them.  The service
walks one cached *M* from several threads at once, so a run is refined
under the order's lock and only ever appended: a walk reads the
refined prefix without the lock.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Sequence, Set, Tuple, TypeVar

from ..engine.columnstore import Column
from ..engine.types import DUMMY, NULL, Row, Value, is_missing, sort_key
from ..errors import ExplanationError
from ..obs import phase
from .cube_algorithm import (
    MU_AGGR,
    MU_HYBRID,
    MU_INTERV,
    ExplanationTable,
    add_hybrid_column,
)
from .predicates import Explanation

T = TypeVar("T")


@dataclass(frozen=True)
class RankedExplanation:
    """One ranked output: the explanation, its degree, the M row."""

    rank: int
    explanation: Explanation
    degree: Value
    row: Row


def _check_minimality(minimality: str) -> None:
    if minimality not in ("general", "specific"):
        raise ExplanationError(
            f"minimality must be 'general' or 'specific', got {minimality!r}"
        )


def _memoized(m: ExplanationTable, key: Tuple, build: Callable[[], T]) -> T:
    """``build()`` once per *key* for the lifetime of *m*.

    Two threads racing on a first build may both build, but both go on
    with the value stored first.
    """
    value = m._memo.get(key)
    if value is None:
        value = m._memo.setdefault(key, build())
    return value


def _columns(
    m: ExplanationTable, by: str
) -> Tuple[Column, List[Tuple[int, List[Value]]]]:
    """The degree column and the (position, column) of each attribute."""
    table = m.table
    mu_pos = table.position(by)
    store = table.store()
    attr = [(i, store.column(i)) for i in table.positions(m.attributes)]
    return store.column(mu_pos), attr


def _conditions(attr: Sequence[Tuple[int, List[Value]]], n: int) -> List[int]:
    """Per row of *M*, its number of real (non-DUMMY, non-NULL) values."""
    counts = [0] * n
    for _, col in attr:
        for p, v in enumerate(col):
            if v is not DUMMY and v is not NULL:
                counts[p] += 1
    return counts


def _eligible(mu: Column, conditions: List[int]) -> List[int]:
    """Positions with a defined degree and at least one real condition."""
    return [p for p, c in enumerate(conditions) if c and not is_missing(mu[p])]


def _plain_numbers(mu: List[Value], positions: Sequence[int]) -> bool:
    """Whether every degree at *positions* is an int or a float, not NaN:
    then the values order and tie exactly as their ``sort_key`` does."""
    for p in positions:
        v = mu[p]
        if (v.__class__ is not float and v.__class__ is not int) or v != v:
            return False
    return True


def _holds_nan(values: List[float]) -> bool:
    """Whether a NaN is among the floats *values*.  Their sum is NaN
    when one is, and otherwise only when both +inf and -inf are."""
    total = sum(values)
    return total != total and any(v != v for v in values)


#: A NaN degree's ``sort_key`` stand-in: every NaN ties every other NaN
#: and sorts below every number (above the booleans).  ``sort_key(nan)``
#: compares neither below nor above a number, so a sort over it would
#: misorder the finite degrees too.
_NAN_KEY = (0.5, 0)


def _degree_codes(column: List[Value]) -> List[int]:
    """Per row, an int ordered and tied as ``sort_key`` orders the column,
    with every NaN in one place (:data:`_NAN_KEY`).

    ``sort_key`` runs once per distinct value.  Values are told apart by
    type too: ``True == 1``, but ``sort_key`` orders them apart.
    """
    first: Dict[Tuple[type, Value], int] = {}
    index = [first.setdefault((v.__class__, v), len(first)) for v in column]
    keys = [_NAN_KEY if v != v else sort_key(v) for _, v in first]
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    code = [rank[k] for k in keys]
    return [code[i] for i in index]


class BestFirstOrder:
    """*M*'s eligible row positions, best first, refined run by run.

    ``_sorted`` holds the positions with a defined degree, sorted once
    by degree, descending and stable; run r (the positions sharing one
    degree) is ``_sorted[_starts[r]:_starts[r + 1]]``.  ``_refined`` is
    the best-first order of the first ``_runs`` runs.  All three are
    ``array('l')``: a list per run would hold an int object per
    position.
    """

    __slots__ = ("_attr", "_sign", "_sorted", "_starts", "_refined", "_runs", "_lock")

    def __init__(
        self,
        mu: Column,
        attr: Sequence[Tuple[int, List[Value]]],
        minimality: str,
    ) -> None:
        self._attr = [col for _, col in attr]
        # general: fewer conditions first; specific: more.
        self._sign = 1 if minimality == "specific" else -1
        if isinstance(mu, array):
            # A typed column: every degree is defined, and a plain number
            # unless it is a NaN.  Sorted as a list: indexing an array
            # builds a number object per access.
            degree = mu.tolist()
            defined = list(range(len(degree)))
            if mu.typecode == "d" and _holds_nan(degree):
                degree = _degree_codes(degree)
        else:
            defined = [p for p, v in enumerate(mu) if v is not NULL and v is not DUMMY]
            degree = mu if _plain_numbers(mu, defined) else _degree_codes(mu)
        defined.sort(key=degree.__getitem__, reverse=True)
        starts = array("l")
        previous = object()  # equal to no degree
        for i, p in enumerate(defined):
            if degree[p] != previous:
                starts.append(i)
                previous = degree[p]
        starts.append(len(defined))
        self._sorted = array("l", defined)
        self._starts = starts
        self._refined = array("l")
        self._runs = 0
        self._lock = threading.Lock()

    @property
    def refined(self) -> int:
        """How many degree-sorted positions the refined runs cover."""
        return self._starts[self._runs]

    def __iter__(self) -> Iterator[int]:
        refined = self._refined  # only ever appended to
        i = 0
        while i < len(refined) or self._reach(i):
            yield refined[i]
            i += 1

    def prefix(self, k: int) -> array:
        """The first *k* positions (fewer when the order is shorter)."""
        if k <= 0:
            return array("l")
        self._reach(k - 1)
        return self._refined[:k]

    def degree_codes(self, n: int) -> array:
        """Per position of *M* (*n* rows), an int ordered as its degree:
        the run's number counted from the last run, -1 when undefined."""
        codes = array("l", [-1]) * n
        runs = len(self._starts) - 1
        for r in range(runs):
            for i in range(self._starts[r], self._starts[r + 1]):
                codes[self._sorted[i]] = runs - r
        return codes

    def _reach(self, i: int) -> bool:
        """Refine runs until the order has position *i*; whether it does."""
        if i < len(self._refined):
            return True
        with self._lock:
            while len(self._refined) <= i and self._runs < len(self._starts) - 1:
                self._refine(self._runs)
                self._runs += 1
            return i < len(self._refined)

    def _refine(self, r: int) -> None:
        """Append run *r*'s eligible positions, best first, to the order:
        by condition count, then by the attribute values descending under
        ``sort_key``, ties in row order."""
        cols = self._attr
        run = []
        for p in self._sorted[self._starts[r]:self._starts[r + 1]]:
            conditions = sum(col[p] is not DUMMY and col[p] is not NULL for col in cols)
            if conditions:
                run.append((self._sign * conditions, p))
        if len(run) > 1:
            run.sort(
                key=lambda e: (e[0], tuple(sort_key(col[e[1]]) for col in cols)),
                reverse=True,
            )
        self._refined.extend([p for _, p in run])


def _order(m: ExplanationTable, by: str, minimality: str) -> BestFirstOrder:
    _check_minimality(minimality)

    def build() -> BestFirstOrder:
        mu, attr = _columns(m, by)
        return BestFirstOrder(mu, attr, minimality)

    return _memoized(m, (by, minimality), build)


def _package(
    m: ExplanationTable, positions: Sequence[int], by: str
) -> List[RankedExplanation]:
    mu_pos = m.table.position(by)
    return [
        RankedExplanation(
            rank=i + 1,
            explanation=m.explanation_of(row),
            degree=row[mu_pos],
            row=row,
        )
        for i, row in enumerate(m.table.take(positions).rows())
    ]


def _first(
    order: BestFirstOrder, k: int, keep: Callable[[int], bool]
) -> Tuple[List[int], int]:
    """The first *k* positions of *order* that *keep* accepts, and how
    many positions the walk visited."""
    chosen: List[int] = []
    walked = 0
    if k > 0:
        for p in order:
            walked += 1
            if keep(p):
                chosen.append(p)
                if len(chosen) == k:
                    break
    return chosen, walked


def _no_minimal(
    m: ExplanationTable, k: int, by: str, minimality: str
) -> Tuple[Sequence[int], int]:
    chosen = _order(m, by, minimality).prefix(k)
    return chosen, len(chosen)


def top_k_no_minimal(
    m: ExplanationTable,
    k: int,
    *,
    by: str = MU_INTERV,
    minimality: str = "general",
) -> List[RankedExplanation]:
    """Strategy (i): plain top-K by the chosen degree column."""
    return _package(m, _no_minimal(m, k, by, minimality)[0], by)


def _pair_signature(
    p: int, attr: Sequence[Tuple[int, List[Value]]]
) -> Tuple[Tuple[int, Value], ...]:
    """The non-dummy (position, value) pairs of row *p*."""
    return tuple((i, col[p]) for i, col in attr if not is_missing(col[p]))


def _signature_digits(attr: Sequence[Tuple[int, List[Value]]]) -> List[List[int]]:
    """Per attribute, per row of *M*: its value's code times the
    attribute's weight, 0 for a missing value.

    The weights are mixed-radix, so the sum of a row's digits over any
    set of its attributes is one int naming exactly those (position,
    value) pairs — a pair signature, or a subset of one, as an int
    rather than nested tuples.  Values are coded by equality, as the
    tuples compared them.
    """
    digits = []
    weight = 1
    for _, col in attr:
        code: Dict[Value, int] = {}
        digits.append([
            0 if is_missing(v) else code.setdefault(v, len(code) + 1) * weight
            for v in col
        ])
        weight *= len(code) + 1
    return digits


def _self_join(m: ExplanationTable, by: str, minimality: str) -> bytearray:
    """Per position of *M*, 1 iff its row is dominated (Section 4.3).

    ``general``: a row is dominated by a strict *generalization* with
    degree ≥ its own.  ``specific``: by a strict *specialization* with
    degree ≥ its own.  Both are the self-join realized as hash lookups
    over pair-signature subsets; a row equal to a dominated one is
    flagged with it.  Signatures and degrees are ints (see
    :func:`_signature_digits`, :meth:`BestFirstOrder.degree_codes`): a
    container per row, held across the join, would be promoted by the
    collector and bring on a full collection in whatever request comes
    next.
    """
    mu, attr = _columns(m, by)
    eligible = _eligible(mu, _conditions(attr, len(mu)))
    digits = _signature_digits(attr)
    signature = [sum(row_digits) for row_digits in zip(*digits)]
    degree = _order(m, by, minimality).degree_codes(len(mu))
    best: Dict[int, int] = {}  # signature -> its highest degree code
    holder: Dict[int, int] = {}  # signature -> first position with that code
    for p in eligible:
        sig = signature[p]
        if sig not in best or degree[p] > best[sig]:
            best[sig] = degree[p]
            holder[sig] = p
    marked: Set[int] = set()
    for p in eligible:
        mine = degree[p]
        parts = [d[p] for d in digits if d[p]]
        subsets = (  # proper, non-trivial
            sum(s) for size in range(1, len(parts)) for s in combinations(parts, size)
        )
        if minimality == "general":
            if any(best.get(s, -1) >= mine for s in subsets):
                marked.add(p)
            continue
        # specific: p dominates its sub-signatures of degree ≤ its own.
        for s in subsets:
            other = best.get(s)
            if other is not None and mine >= other:
                marked.add(holder[s])
    flags = bytearray(len(mu))
    for p in marked:
        flags[p] = 1
    # An unmarked row equal to a marked one has its signature too, so
    # only rows sharing a marked signature are built and compared.
    suspects = {signature[p] for p in marked}
    twins = [p for p in eligible if p not in marked and signature[p] in suspects]
    if twins:
        dominated = set(m.table.take(sorted(marked)).rows())
        for p, row in zip(twins, m.table.take(twins).rows()):
            flags[p] = row in dominated
    return flags


def _dominated(m: ExplanationTable, by: str, minimality: str) -> bytearray:
    _check_minimality(minimality)
    return _memoized(
        m, ("self_join", by, minimality), lambda: _self_join(m, by, minimality)
    )


def _minimal_self_join(
    m: ExplanationTable, k: int, by: str, minimality: str
) -> Tuple[List[int], int]:
    order = _order(m, by, minimality)
    dominated = _dominated(m, by, minimality)
    return _first(order, k, lambda p: not dominated[p])


def top_k_minimal_self_join(
    m: ExplanationTable,
    k: int,
    *,
    by: str = MU_INTERV,
    minimality: str = "general",
) -> List[RankedExplanation]:
    """Strategy (ii): filter dominated rows via self-join, then top-K."""
    return _package(m, _minimal_self_join(m, k, by, minimality)[0], by)


def _minimal_append(
    m: ExplanationTable, k: int, by: str, minimality: str
) -> Tuple[List[int], int]:
    order = _order(m, by, minimality)
    attr = _columns(m, by)[1]
    columns = dict(attr)
    output: List[Tuple[Tuple[int, Value], ...]] = []  # general: each φ
    contains: List[Set[Tuple[int, Value]]] = []  # specific: φ's pairs

    def keep(p: int) -> bool:
        if minimality == "general":
            # Pruned by ¬φ: p equals an output φ on φ's pairs.
            if any(all(columns[i][p] == v for i, v in phi) for phi in output):
                return False
            output.append(_pair_signature(p, attr))
            return True
        mine = set(_pair_signature(p, attr))
        if any(mine <= pairs for pairs in contains):
            return False
        contains.append(mine)
        return True

    return _first(order, k, keep)


def top_k_minimal_append(
    m: ExplanationTable,
    k: int,
    *,
    by: str = MU_INTERV,
    minimality: str = "general",
) -> List[RankedExplanation]:
    """Strategy (iii): K rounds of top-1 with appended ``¬φ`` filters.

    General mode: after outputting φ_i, every remaining *specialization*
    of φ_i is pruned (its degree is ≤ φ_i's by top-1 order, hence it is
    dominated).  Specific mode: every remaining *generalization* is
    pruned instead.  Both are one walk of the best-first order.
    """
    return _package(m, _minimal_append(m, k, by, minimality)[0], by)


STRATEGIES = {
    "no_minimal": top_k_no_minimal,
    "minimal_self_join": top_k_minimal_self_join,
    "minimal_append": top_k_minimal_append,
}

#: Each strategy's walk: the positions it outputs and how many it visited.
_WALKS = {
    "no_minimal": _no_minimal,
    "minimal_self_join": _minimal_self_join,
    "minimal_append": _minimal_append,
}


def top_k_explanations(
    m: ExplanationTable,
    k: int,
    *,
    by: str = MU_INTERV,
    strategy: str = "minimal_append",
    minimality: str = "general",
) -> List[RankedExplanation]:
    """Dispatch to one of the three Section 4.3 strategies."""
    try:
        walk = _WALKS[strategy]
    except KeyError:
        raise ExplanationError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    with phase("topk", strategy=strategy, by=by, k=k, rows=len(m)) as ph:
        order = "reused" if (by, minimality) in m._memo else "built"
        positions, walked = walk(m, k, by, minimality)
        ranked = _package(m, positions, by)
        ph.annotate(
            order=order,
            walked=walked,
            refined=_order(m, by, minimality).refined,
            returned=len(ranked),
        )
    return ranked


#: The μ column each named ranking degree reads.
_DEGREE_COLUMNS = {
    "intervention": MU_INTERV,
    "aggravation": MU_AGGR,
    "hybrid": MU_HYBRID,
}


def rank_table(
    table: ExplanationTable,
    *,
    k: int,
    by: str = "intervention",
    strategy: str = "minimal_append",
    minimality: str = "general",
    hybrid_weight: float = 0.5,
) -> List[RankedExplanation]:
    """The top-K (minimal) explanations of a finalized table *M*.

    ``by`` is ``"intervention"``, ``"aggravation"`` or ``"hybrid"``
    (the Section 6(iii) rank-combined degree, weighted by
    ``hybrid_weight`` toward intervention); ``strategy`` and
    ``minimality`` are :func:`top_k_explanations`'.  No universal
    table or cube is touched, so a cached *M* ranks as is.
    """
    column = _DEGREE_COLUMNS.get(by)
    if column is None:
        raise ExplanationError(
            f"by must be one of {tuple(_DEGREE_COLUMNS)}, got {by!r}"
        )
    m = add_hybrid_column(table, weight=hybrid_weight) if by == "hybrid" else table
    return top_k_explanations(
        m, k, by=column, strategy=strategy, minimality=minimality
    )
