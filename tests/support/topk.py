"""The production self-join's dominated rows, as a set.

:mod:`repro.core.topk` keeps dominance as memoised per-row flags; this
view turns them into the row set that the Section 4.3 definition (and
``tests/core/topk_oracle.py``) speaks of.
"""

from __future__ import annotations

from typing import Set

from repro.core.cube_algorithm import MU_INTERV, ExplanationTable
from repro.core.topk import _dominated
from repro.engine.types import Row


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
