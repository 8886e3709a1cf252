"""Incremental explanation maintenance (delta cubes).

The cold pipeline computes explanation tables over a frozen instance;
this package keeps them warm under writes.  Three pieces:

* :class:`MutationLog` — typed capture of insert/delete batches per
  relation, via the :meth:`Relation.subscribe
  <repro.engine.relation.Relation.subscribe>` API.
* :class:`DeltaCubeBuilder` — the cold cube's per-key base states,
  kept with retractable accumulators, that fold a net delta in time
  proportional to the delta's universal rows, with
  conservation-checked retraction.
* :class:`IncrementalSession` — the patched-state lifecycle: refresh,
  verification, and graceful fallback to full recompute (warning +
  ``repro_incremental_fallbacks_total{reason}``) on any non-additive
  plan or exactness violation.

Layering: ``engine < incremental < core`` — this package
is stdlib-only and imports :mod:`repro.core` / :mod:`repro.analysis`
only inside functions (table finalization, certification, cold
fallback builds).  See ``docs/incremental.md`` for the delta
protocol, exactness conditions, and fallback semantics.
"""

from .delta import DeltaApplyStats, DeltaCubeBuilder
from .log import MutationBatch, MutationLog
from .session import IncrementalSession, RefreshStats

__all__ = [
    "DeltaApplyStats",
    "DeltaCubeBuilder",
    "MutationBatch",
    "MutationLog",
    "IncrementalSession",
    "RefreshStats",
]
