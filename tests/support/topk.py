"""Views and oracles for :mod:`repro.core.topk`.

* :func:`dominated_rows` turns the production self-join's memoised
  per-row flags into the row set that the Section 4.3 definition (and
  ``tests/core/topk_oracle.py``) speaks of.
* :func:`best_first` is the best-first order as it was first built: the
  eager full sort of every eligible row of *M*.  The library refines
  the same order lazily, one degree run at a time, and the property
  suite holds the two equal position for position.
"""

from __future__ import annotations

from array import array
from typing import List, Set

from repro.core.cube_algorithm import MU_INTERV, ExplanationTable
from repro.core.topk import _dominated
from repro.engine.types import DUMMY, NULL, Row, Value, is_missing, sort_key


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
    flags = _dominated(m, by, minimality)
    return set(m.table.take([p for p, f in enumerate(flags) if f]).rows())


def degree_key(value: Value):
    """``sort_key``, but every NaN ties every other NaN and sorts below
    every number: ``sort_key(nan)`` is neither below nor above one."""
    return (0.5, 0) if value != value else sort_key(value)


def _dense_codes(column: List[Value], key=sort_key) -> List[int]:
    """Per row, an int ordered and tied as *key* orders the column."""
    code = {k: i for i, k in enumerate(sorted(set(map(key, column))))}
    return [code[key(v)] for v in column]


def best_first(
    m: ExplanationTable, by: str = MU_INTERV, minimality: str = "general"
) -> array:
    """Eligible positions of *M*, best first, ties in row order.

    Eligible: a defined degree and at least one real (non-DUMMY,
    non-NULL) condition.  Stable descending passes over every eligible
    row, least significant key first: each attribute from the last,
    then the condition count (fewer first under ``general``), then the
    degree (:func:`degree_key`).
    """
    table = m.table
    store = table.store()
    mu = store.column(table.position(by))
    attr = [store.column(i) for i in table.positions(m.attributes)]
    conditions = [
        sum(col[p] is not DUMMY and col[p] is not NULL for col in attr)
        for p in range(len(mu))
    ]
    order = [p for p, c in enumerate(conditions) if c and not is_missing(mu[p])]
    for col in reversed(attr):
        order.sort(key=_dense_codes(col).__getitem__, reverse=True)
    order.sort(key=conditions.__getitem__, reverse=minimality == "specific")
    order.sort(key=_dense_codes(mu, degree_key).__getitem__, reverse=True)
    return array("l", order)
