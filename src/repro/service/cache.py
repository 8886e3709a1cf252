"""Content-addressed LRU cache for finalized explanation tables.

Algorithm 1 front-loads all the cost into materializing the table *M*
(one conditional-aggregate cube over the relevant attributes, then
the μ columns); every top-K request over *M* — any K, either degree,
any Section 4.3 strategy — is a cheap scan.  The serving layer
therefore memoizes finalized
:class:`~repro.core.cube_algorithm.ExplanationTable` objects keyed by
the :class:`~repro.core.explainer.ExplanationPlan` fingerprint
(database content hash, canonical question, attributes, method,
backend), so repeated questions skip cube construction entirely.

Eviction is LRU under two simultaneous budgets — an entry count and a
byte budget.  A table is measured once, at insertion, by
:func:`estimate_table_bytes`, from its layout: the bytes *M* itself
holds resident, in O(width) for the typed columns it normally has.
All operations are thread-safe; the
hit/miss/eviction counts are ``repro_cache_*`` series in a
:class:`~repro.obs.MetricsRegistry` (the service's, or the cache's own
when none is supplied), which :meth:`~ExplanationTableCache.stats`,
``/v1/stats`` and ``/v1/metrics`` all read.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.cube_algorithm import ExplanationTable
from ..obs import MetricsRegistry

_SIZE_OVERHEAD = 256  # flat per-entry allowance for wrapper objects


def estimate_table_bytes(m: ExplanationTable) -> int:
    """The bytes the table *M* holds resident, read off its layout.

    Each column counts its container (``sys.getsizeof``): a typed
    ``array('q')`` / ``array('d')`` column holds its numbers in that
    buffer, so it is measured in O(1).  An attribute column counts its
    pointer array only: its cells are references to values the database
    already holds (the cube's keys are the universal table's cell
    objects, and DUMMY is one object).  A numeric column that stayed a
    list (NULL, bool or mixed cells) is also measured cell by cell.
    A column shared by two names (``mu_aggr`` is the ``v_j`` column
    itself when E is ``q_j`` and the sign is +1) is counted once.  The
    column headers and ``q_original`` are added; row tuples are not,
    because the serving path never builds them.
    """
    table = m.table
    attributes = set(table.positions(m.attributes))
    total = _SIZE_OVERHEAD + sum(map(sys.getsizeof, table.columns))
    counted = set()
    for i, column in enumerate(table.column_arrays()):
        if id(column) in counted:
            continue
        counted.add(id(column))
        total += sys.getsizeof(column)
        if i not in attributes and not isinstance(column, array):
            total += sum(map(sys.getsizeof, column))
    for name, value in m.q_original.items():
        total += sys.getsizeof(name) + sys.getsizeof(value)
    return total


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the cache counters."""

    hits: int
    misses: int
    evictions: int
    entries: int
    current_bytes: int
    max_entries: int
    max_bytes: int
    #: Entries by origin: built cold vs. patched incrementally.
    built_entries: int = 0
    patched_entries: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "current_bytes": self.current_bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "built_entries": self.built_entries,
            "patched_entries": self.patched_entries,
        }


class ExplanationTableCache:
    """Thread-safe LRU + byte-budget cache of explanation tables.

    Keys are opaque strings — in practice the
    :attr:`~repro.core.explainer.ExplanationPlan.fingerprint` content
    address, which already encodes the database state, so a mutated
    database simply produces new keys and stale entries age out via
    LRU rather than being served.
    """

    def __init__(
        self,
        *,
        max_entries: int = 256,
        max_bytes: int = 256 * 1024 * 1024,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, Tuple[ExplanationTable, int, str]]" = (
            OrderedDict()
        )
        self._current_bytes = 0
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_hits = metrics.counter(
            "repro_cache_hits_total", help="Explanation-table cache hits."
        )
        self._m_misses = metrics.counter(
            "repro_cache_misses_total",
            help="Explanation-table cache misses.",
        )
        self._m_evictions = metrics.counter(
            "repro_cache_evictions_total",
            help="Explanation-table cache LRU/byte-budget evictions.",
        )
        self._m_entries = metrics.gauge(
            "repro_cache_entries", help="Cached explanation tables."
        )
        self._m_bytes = metrics.gauge(
            "repro_cache_bytes",
            help="Estimated resident bytes of cached tables.",
        )
        self._m_built = metrics.gauge(
            "repro_cache_built_entries",
            help="Cached tables that were built cold.",
        )
        self._m_patched = metrics.gauge(
            "repro_cache_patched_entries",
            help="Cached tables that were patched incrementally.",
        )

    def _origin_counts_locked(self) -> Tuple[int, int]:
        built = sum(
            1 for (_, _, origin) in self._entries.values() if origin == "built"
        )
        return built, len(self._entries) - built

    def _sync_occupancy_locked(self) -> None:
        self._m_entries.set(len(self._entries))
        self._m_bytes.set(self._current_bytes)
        built, patched = self._origin_counts_locked()
        self._m_built.set(built)
        self._m_patched.set(patched)

    # -- lookup -----------------------------------------------------------

    def get(self, key: str) -> Optional[ExplanationTable]:
        """The cached table for *key*, or None; counts a hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            self._m_hits.inc()
            return entry[0]

    def peek(self, key: str) -> Optional[ExplanationTable]:
        """Like :meth:`get` but touches neither counters nor LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            return entry[0] if entry is not None else None

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> Tuple[str, ...]:
        """Current keys, least- to most-recently used."""
        with self._lock:
            return tuple(self._entries)

    # -- insertion / eviction ---------------------------------------------

    def put(
        self, key: str, table: ExplanationTable, *, origin: str = "built"
    ) -> bool:
        """Insert (or refresh) *key*; returns False when not cacheable.

        ``origin`` tags how the table came to be — ``"built"`` (cold
        compute) or ``"patched"`` (incremental delta application) —
        for the patched-vs-rebuilt occupancy counts.

        A table bigger than the whole byte budget is refused outright —
        admitting it would flush every other entry for a value that can
        never be joined by a second one.
        """
        if origin not in ("built", "patched"):
            raise ValueError(f"origin must be 'built' or 'patched', got {origin!r}")
        size = estimate_table_bytes(table)
        with self._lock:
            if size > self.max_bytes:
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._current_bytes -= old[1]
            self._entries[key] = (table, size, origin)
            self._current_bytes += size
            self._evict_locked()
            self._sync_occupancy_locked()
            return True

    def _evict_locked(self) -> None:
        while len(self._entries) > self.max_entries or (
            self._current_bytes > self.max_bytes and self._entries
        ):
            _, (_, size, _) = self._entries.popitem(last=False)
            self._current_bytes -= size
            self._m_evictions.inc()

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns True when it was present."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._current_bytes -= entry[1]
            self._sync_occupancy_locked()
            return True

    def clear(self) -> None:
        """Drop everything (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0
            self._sync_occupancy_locked()

    # -- introspection -----------------------------------------------------

    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters and occupancy."""
        with self._lock:
            built, patched = self._origin_counts_locked()
            return CacheStats(
                hits=int(self._m_hits.value),
                misses=int(self._m_misses.value),
                evictions=int(self._m_evictions.value),
                entries=len(self._entries),
                current_bytes=self._current_bytes,
                max_entries=self.max_entries,
                max_bytes=self.max_bytes,
                built_entries=built,
                patched_entries=patched,
            )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"ExplanationTableCache(entries={s.entries}/{s.max_entries}, "
            f"bytes={s.current_bytes}/{s.max_bytes}, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )
