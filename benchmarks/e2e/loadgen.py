"""Closed-loop load generation and the statistics the benchmark reports.

One client sends an operation, waits for the reply, then sends the
next one (an analyst re-ranking the same table).  A workload hands this
module *rounds* — lists of operations with a fixed composition whose
order and free parameters come from the seed — and a fixed number of
them, so every run on every commit executes the same operations.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: (metric, unit, better, bound): what a user of the system sees.  The
#: bound is the share of the parent's median by which the metric may get
#: worse before a change counts as a regression.  A bound is three times
#: the widest quartile spread ten runs of one unchanged commit showed on
#: any workload, rounded up to a twentieth, and at most the 0.25 the
#: contract allows (README.md, "Point zero").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("primary_p50_ms", "ms", "lower", 0.25),
    ("secondary_p50_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
)

#: Percentiles a tail reading may use, highest first.
TAIL_CANDIDATES = (99, 95, 90, 75)
#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Op:
    """One generated operation: all the program under test ever sees.

    ``role`` says which latency metric the operation feeds (``primary``
    or ``secondary``); ``kind`` is ``family/variant`` and names one
    fixed element of the round — operations of one kind cost the same
    whatever the seed; ``target`` is an HTTP path or an argv list;
    ``expect`` is the ``X-Repro-Cache`` value a correct server must
    answer with.
    """

    role: str
    kind: str
    target: object
    body: Optional[dict] = None
    expect: str = ""

    @property
    def family(self) -> str:
        return self.kind.split("/", 1)[0]

    def canonical(self) -> str:
        return json.dumps(
            [self.role, self.kind, self.target, self.body, self.expect],
            sort_keys=True,
        )


@dataclass
class Outcome:
    """What happened to one operation."""

    op: Op
    ok: bool
    seconds: float
    reply: object = None
    detail: str = ""


def supported_tail(n: int) -> int:
    """The highest percentile with ``MIN_BEYOND`` of *n* samples beyond it."""
    for p in TAIL_CANDIDATES:
        if n * (100 - p) / 100.0 >= MIN_BEYOND:
            return p
    return 50


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile *p* (0-100) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def sequence_hash(rounds: Iterable[Sequence[Op]]) -> str:
    """SHA-256 over the canonical form of every operation of *rounds*."""
    digest = hashlib.sha256()
    for ops in rounds:
        for op in ops:
            digest.update(op.canonical().encode("utf-8") + b"\n")
    return digest.hexdigest()


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or its reaped children), in MB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_rounds(
    rounds: Sequence[Sequence[Op]],
    execute: Callable[[Op], Outcome],
    *,
    cap_seconds: float,
) -> "tuple[List[Outcome], float]":
    """Run every operation of *rounds*, closed loop.

    The run length is the number of operations, never the clock.
    *cap_seconds* only keeps a run that has gone wrong inside the
    driver's time limit: an operation due after the cap is not sent and
    counts as failed.  Returns (outcomes, elapsed seconds).
    """
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    for ops in rounds:
        for op in ops:
            if time.perf_counter() - start > cap_seconds:
                outcomes.append(
                    Outcome(op, False, 0.0, detail="not sent: window passed --seconds")
                )
            else:
                outcomes.append(execute(op))
    return outcomes, time.perf_counter() - start


def latencies_ms(outcomes: Iterable[Outcome], role: str) -> List[float]:
    """Latencies of the successful operations of one role, in ms."""
    return [o.seconds * 1000.0 for o in outcomes if o.ok and o.op.role == role]


def summarize(
    outcomes: Sequence[Outcome], elapsed: float, unit_families: Sequence[str]
) -> Dict[str, Optional[float]]:
    """The latency and throughput metrics of one timed window.

    A failed operation has no latency: it is left out of the medians
    and out of the throughput, and shows in the failure count instead.
    A role without one successful operation has no median (``None``).
    """
    units = sum(1 for o in outcomes if o.ok and o.op.family in unit_families)
    summary: Dict[str, Optional[float]] = {"throughput_per_s": units / elapsed}
    for role in ("primary", "secondary"):
        sample = latencies_ms(outcomes, role)
        summary[f"{role}_p50_ms"] = statistics.median(sample) if sample else None
    return summary


def tail(outcomes: Sequence[Outcome], role: str) -> Dict[str, float]:
    """The highest percentile the role's sample supports, and its size.

    Not an ``END_TO_END`` metric: the driver wants one metric list for
    all workloads, and cold-cube and cli-ask have too few operations for
    any percentile above the median.
    """
    sample = latencies_ms(outcomes, role)
    p = supported_tail(len(sample))
    reading: Dict[str, float] = {"n": len(sample), "percentile": p}
    if p > 50:  # below forty samples the median is all there is
        reading["ms"] = percentile(sample, p)
    return reading
