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
``max`` over them in *M*'s order returns.  The order (an ``array`` of
positions — rows are built only for the K outputs) and the self-join's
flags are memoised on the :class:`ExplanationTable` and live exactly
as long as *M*: the table is immutable, an incremental refresh emits a
new one, so nothing invalidates them.  Two threads racing on a first
build compute equal values and the last write wins.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Dict, List, Sequence, Set, Tuple, TypeVar

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
    """``build()`` once per *key* for the lifetime of *m*."""
    value = m._memo.get(key)
    if value is None:
        value = m._memo[key] = build()
    return value


def _columns(
    m: ExplanationTable, by: str
) -> Tuple[List[Value], List[Tuple[int, List[Value]]]]:
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


def _eligible(mu: List[Value], conditions: List[int]) -> List[int]:
    """Positions with a defined degree and at least one real condition."""
    return [p for p, c in enumerate(conditions) if c and not is_missing(mu[p])]


def _dense_codes(column: List[Value]) -> List[int]:
    """Per row, an int ordered and tied as ``sort_key`` orders the column.

    Ints, not key tuples, so the sort passes below keep no container per
    row alive.
    """
    code = {k: i for i, k in enumerate(sorted(set(map(sort_key, column))))}
    return [code[sort_key(v)] for v in column]


def _best_first(m: ExplanationTable, by: str, minimality: str) -> array:
    """Eligible positions of *M*, best first, ties in row order.

    Stable descending passes, least significant key first: each
    attribute from the last, then the condition count, then the degree.
    """
    mu, attr = _columns(m, by)
    conditions = _conditions(attr, len(mu))
    order = _eligible(mu, conditions)
    for _, col in reversed(attr):
        order.sort(key=_dense_codes(col).__getitem__, reverse=True)
    order.sort(key=conditions.__getitem__, reverse=minimality == "specific")
    order.sort(key=_dense_codes(mu).__getitem__, reverse=True)
    return array("l", order)


def _order(m: ExplanationTable, by: str, minimality: str) -> array:
    _check_minimality(minimality)
    return _memoized(
        m, (by, minimality), lambda: _best_first(m, by, minimality)
    )


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


def top_k_no_minimal(
    m: ExplanationTable,
    k: int,
    *,
    by: str = MU_INTERV,
    minimality: str = "general",
) -> List[RankedExplanation]:
    """Strategy (i): plain top-K by the chosen degree column."""
    order = _order(m, by, minimality)
    return _package(m, order[: max(k, 0)], by)


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
    :func:`_signature_digits`, :func:`_dense_codes`): a container per
    row, held across the join, would be promoted by the collector and
    bring on a full collection in whatever request comes next.
    """
    mu, attr = _columns(m, by)
    eligible = _eligible(mu, _conditions(attr, len(mu)))
    digits = _signature_digits(attr)
    signature = [sum(row_digits) for row_digits in zip(*digits)]
    degree = _dense_codes(mu)
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


def top_k_minimal_self_join(
    m: ExplanationTable,
    k: int,
    *,
    by: str = MU_INTERV,
    minimality: str = "general",
) -> List[RankedExplanation]:
    """Strategy (ii): filter dominated rows via self-join, then top-K."""
    order = _order(m, by, minimality)
    dominated = _dominated(m, by, minimality)
    survivors = (p for p in order if not dominated[p])
    return _package(m, list(islice(survivors, max(k, 0))), by)


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
    order = _order(m, by, minimality)
    attr = _columns(m, by)[1]
    columns = dict(attr)
    chosen: List[int] = []
    output: List[Tuple[Tuple[int, Value], ...]] = []  # general: each φ
    contains: List[Set[Tuple[int, Value]]] = []  # specific: φ's pairs
    for p in order:
        if len(chosen) >= k:
            break
        if minimality == "general":
            # Pruned by ¬φ: p equals an output φ on φ's pairs.
            if any(all(columns[i][p] == v for i, v in phi) for phi in output):
                continue
            output.append(_pair_signature(p, attr))
        else:
            mine = set(_pair_signature(p, attr))
            if any(mine <= pairs for pairs in contains):
                continue
            contains.append(mine)
        chosen.append(p)
    return _package(m, chosen, by)


STRATEGIES = {
    "no_minimal": top_k_no_minimal,
    "minimal_self_join": top_k_minimal_self_join,
    "minimal_append": top_k_minimal_append,
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
        fn = STRATEGIES[strategy]
    except KeyError:
        raise ExplanationError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    with phase("topk", strategy=strategy, by=by, k=k, rows=len(m)) as ph:
        order = "reused" if (by, minimality) in m._memo else "built"
        ranked = fn(m, k, by=by, minimality=minimality)
        ph.annotate(order=order, returned=len(ranked))
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
