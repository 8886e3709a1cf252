"""Single-flight request coalescing.

When N identical requests arrive concurrently and the result is not
cached yet, computing the explanation table N times is pure waste —
the table is deterministic in its plan fingerprint.  The coalescer
guarantees that for any key, at most one computation is in flight: the
first caller (the *leader*) runs the function; every other caller with
the same key blocks on the leader's future and receives the same
result object.  If the leader raises, the exception propagates to all
waiters and the key is released so a later request can retry.

The design follows Go's ``golang.org/x/sync/singleflight``, adapted to
Python threads via :class:`concurrent.futures.Future` (the serving
layer runs explanation builds on a thread pool, so thread-level
coalescing is the right granularity).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Dict, Optional, Tuple, TypeVar

from ..obs import MetricsRegistry

T = TypeVar("T")


class SingleFlight:
    """Coalesce concurrent calls with the same key into one execution."""

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, "Future[T]"] = {}
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_leaders = metrics.counter(
            "repro_singleflight_total",
            labels={"outcome": "leader"},
            help="Single-flight calls by outcome.",
        )
        self._m_waiters = metrics.counter(
            "repro_singleflight_total",
            labels={"outcome": "coalesced"},
            help="Single-flight calls by outcome.",
        )
        self._m_gauge = metrics.gauge(
            "repro_inflight_builds",
            help="Keys with a computation currently in flight.",
        )

    def do(
        self,
        key: str,
        fn: Callable[[], T],
        *,
        timeout: Optional[float] = None,
    ) -> Tuple[T, bool]:
        """Run ``fn()`` once per concurrent *key*; returns ``(result, leader)``.

        *leader* is True for the caller that actually executed *fn*.
        Waiters re-raise the leader's exception (if any); *timeout*
        bounds how long a waiter blocks on the leader.
        """
        with self._lock:
            future = self._inflight.get(key)
            if future is None:
                future = Future()
                self._inflight[key] = future
                leader = True
            else:
                leader = False
            self._m_gauge.set(len(self._inflight))
        if not leader:
            self._m_waiters.inc()
            return future.result(timeout=timeout), False
        self._m_leaders.inc()
        try:
            result = fn()
        except BaseException as exc:
            future.set_exception(exc)
            self._release(key)
            raise
        future.set_result(result)
        self._release(key)
        return result, True

    def _release(self, key: str) -> None:
        with self._lock:
            self._inflight.pop(key, None)
            self._m_gauge.set(len(self._inflight))

    def inflight(self) -> int:
        """Number of keys currently being computed."""
        with self._lock:
            return len(self._inflight)

    def is_inflight(self, key: str) -> bool:
        """True while a leader for *key* is still running."""
        with self._lock:
            return key in self._inflight
