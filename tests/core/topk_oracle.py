"""Reference oracle for :mod:`repro.core.topk`: the row-at-a-time strategies.

These are the Section 4.3 strategies as first written — every call
materialises the eligible rows of *M*, No-Minimal and the self-join
take ``heapq.nlargest`` by ``_rank_key``, and Minimal-append runs K
rounds of ``max`` over the remaining rows with ``¬φ`` appended.  The
library ranks by walking one memoised best-first order instead; the
property suite checks the two agree output for output.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.cube_algorithm import MU_INTERV, ExplanationTable
from repro.core.topk import RankedExplanation
from repro.engine.types import Row, Value, is_dummy, is_missing, is_null, sort_key
from repro.errors import ExplanationError


def _check_minimality(minimality: str) -> None:
    if minimality not in ("general", "specific"):
        raise ExplanationError(
            f"minimality must be 'general' or 'specific', got {minimality!r}"
        )


def _degree_key(value: Value):
    """``sort_key``, but every NaN ties every other NaN and sorts below
    every number: ``sort_key(nan)`` is neither below nor above one."""
    return (0.5, 0) if value != value else sort_key(value)


def _rank_key(mu_pos: int, attr_pos: Sequence[int], minimality: str = "general"):
    """Sort key: degree first, then a specificity tie-break.

    ``general``: among equal degrees, fewer conditions win (the
    paper's dummy trick — DUMMY sorts above every real value, so
    dummy-heavy rows rank higher).  ``specific``: more conditions win
    (footnote 12's alternative).  A full attribute tuple breaks the
    remaining ties deterministically.
    """
    sign = -1 if minimality == "general" else 1

    def key(row: Row):
        conditions = sum(
            1
            for i in attr_pos
            if not is_dummy(row[i]) and not is_null(row[i])
        )
        return (
            _degree_key(row[mu_pos]),
            sign * conditions,
            tuple(sort_key(row[i]) for i in attr_pos),
        )

    return key


def _eligible_rows(m: ExplanationTable, by: str) -> Tuple[List[Row], int, Tuple[int, ...]]:
    """Rows with a defined degree and at least one real condition.

    Eligibility is decided from the degree and attribute *columns*
    (no row materialization for filtered-out rows); the surviving
    rows are then gathered once for the strategies, which are
    row-at-a-time by nature (heaps, signature subsets).
    """
    table = m.table
    mu_pos = table.position(by)
    attr_pos = table.positions(m.attributes)
    store = table.store()
    mu_col = store.column(mu_pos)
    attr_cols = [store.column(i) for i in attr_pos]
    selection = [
        i
        for i in range(len(table))
        if not is_missing(mu_col[i])
        and not all(is_dummy(col[i]) or is_null(col[i]) for col in attr_cols)
    ]
    rows = table.take(selection).rows()
    return rows, mu_pos, attr_pos


def _package(
    m: ExplanationTable, rows: Sequence[Row], by: str
) -> List[RankedExplanation]:
    mu_pos = m.table.position(by)
    return [
        RankedExplanation(
            rank=i + 1,
            explanation=m.explanation_of(row),
            degree=row[mu_pos],
            row=row,
        )
        for i, row in enumerate(rows)
    ]


def top_k_no_minimal(
    m: ExplanationTable,
    k: int,
    *,
    by: str = MU_INTERV,
    minimality: str = "general",
) -> List[RankedExplanation]:
    """Strategy (i): plain top-K by the chosen degree column."""
    _check_minimality(minimality)
    rows, mu_pos, attr_pos = _eligible_rows(m, by)
    chosen = heapq.nlargest(
        k, rows, key=_rank_key(mu_pos, attr_pos, minimality)
    )
    return _package(m, chosen, by)


def _pair_signature(row: Row, attr_pos: Sequence[int]) -> Tuple[Tuple[int, Value], ...]:
    """The non-dummy (position, value) pairs of a row."""
    return tuple(
        (i, row[i])
        for i in attr_pos
        if not is_dummy(row[i]) and not is_null(row[i])
    )


def dominated_rows(
    m: ExplanationTable,
    *,
    by: str = MU_INTERV,
    minimality: str = "general",
) -> Set[Row]:
    """Rows dominated under the chosen minimality order.

    ``general``: a row is dominated by a strict *generalization* with
    degree ≥ its own.  ``specific``: by a strict *specialization* with
    degree ≥ its own.  Both are the Section 4.3 self-join realized as
    hash lookups over pair-signature subsets.
    """
    _check_minimality(minimality)
    rows, mu_pos, attr_pos = _eligible_rows(m, by)
    degree_by_signature: Dict[Tuple[Tuple[int, Value], ...], Value] = {}
    row_by_signature: Dict[Tuple[Tuple[int, Value], ...], Row] = {}
    for row in rows:
        sig = _pair_signature(row, attr_pos)
        mu = row[mu_pos]
        best = degree_by_signature.get(sig)
        if best is None or _degree_key(mu) > _degree_key(best):
            degree_by_signature[sig] = mu
            row_by_signature[sig] = row
    dominated: Set[Row] = set()
    if minimality == "general":
        for row in rows:
            sig = _pair_signature(row, attr_pos)
            mu = row[mu_pos]
            for size in range(len(sig)):  # proper subsets only
                for subset in combinations(sig, size):
                    if not subset:
                        continue  # trivial explanation is excluded
                    general = degree_by_signature.get(subset)
                    if general is not None and _degree_key(general) >= _degree_key(mu):
                        dominated.add(row)
                        break
                else:
                    continue
                break
        return dominated
    # specific: iterate rows as dominators; their proper sub-signatures
    # present in M with degree ≤ theirs are dominated.
    for row in rows:
        sig = _pair_signature(row, attr_pos)
        mu = row[mu_pos]
        for size in range(1, len(sig)):  # proper, non-trivial subsets
            for subset in combinations(sig, size):
                target = degree_by_signature.get(subset)
                if target is not None and _degree_key(mu) >= _degree_key(target):
                    dominated.add(row_by_signature[subset])
    return dominated


def top_k_minimal_self_join(
    m: ExplanationTable,
    k: int,
    *,
    by: str = MU_INTERV,
    minimality: str = "general",
) -> List[RankedExplanation]:
    """Strategy (ii): filter dominated rows via self-join, then top-K."""
    _check_minimality(minimality)
    rows, mu_pos, attr_pos = _eligible_rows(m, by)
    dominated = dominated_rows(m, by=by, minimality=minimality)
    survivors = [row for row in rows if row not in dominated]
    chosen = heapq.nlargest(
        k, survivors, key=_rank_key(mu_pos, attr_pos, minimality)
    )
    return _package(m, chosen, by)


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
    pruned instead.
    """
    _check_minimality(minimality)
    rows, mu_pos, attr_pos = _eligible_rows(m, by)
    key = _rank_key(mu_pos, attr_pos, minimality)
    remaining = list(rows)
    output: List[Row] = []
    for _ in range(k):
        if not remaining:
            break
        best = max(remaining, key=key)
        output.append(best)
        sig = _pair_signature(best, attr_pos)
        if minimality == "general":
            remaining = [
                row
                for row in remaining
                if not _matches_signature(row, sig)
            ]
        else:
            sig_set = set(sig)
            remaining = [
                row
                for row in remaining
                if not set(_pair_signature(row, attr_pos)) <= sig_set
            ]
    return _package(m, output, by)


def _matches_signature(
    row: Row, signature: Tuple[Tuple[int, Value], ...]
) -> bool:
    """True iff *row* satisfies φ: equals the signature on its pairs."""
    return all(row[i] == v for i, v in signature)


STRATEGIES = {
    "no_minimal": top_k_no_minimal,
    "minimal_self_join": top_k_minimal_self_join,
    "minimal_append": top_k_minimal_append,
}
