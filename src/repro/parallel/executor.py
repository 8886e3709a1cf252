"""The fan-out executor: scatter once, cube many, merge exactly.

:class:`ShardedCubeSession` is the subsystem's front door.  It is
built once per explanation-table build (or held warm by the service
for a hot question): the universal table is projected to the needed
columns, hash-partitioned by the driver key
(:mod:`repro.parallel.planner`), and scattered to the pinned worker
pool (:mod:`repro.parallel.pool`).  Each subsequent
:meth:`ShardedCubeSession.cube` call then ships only a predicate and
an aggregate spec; workers filter their resident slice, group it at
full granularity, and send the partial states back, where an
associativity-checked reduction tree merges them and the engine's own
rollup/emit finishes the cube.  Because the merged base states are
exactly the serial ones, the finished table is content-identical at
any shard count.

Failure policy: deterministic data errors (``ReproError``) re-raise —
they would fail serially too.  Infrastructure failures (a crashed
worker, a timeout, a broken pool) degrade gracefully: the pool is
discarded, a ``RuntimeWarning`` is emitted, an ``obs`` counter ticks,
and the cube is computed serially in-process — same bytes, one core.

Configuration: ``REPRO_SHARDS`` (or the explicit ``shards=`` argument
/ ``--shards`` CLI flag) picks the shard count;
``REPRO_SHARD_MODE=inline`` keeps the partition/merge pipeline but
runs shard tasks in-process (deterministic tests, pickling-free
profiling); ``REPRO_SHARD_TIMEOUT`` bounds one task's wall clock.
"""

from __future__ import annotations

import os
import warnings
from itertools import count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..engine.aggregates import AggregateSpec
from ..engine.cube import (
    GroupState,
    base_states,
    cube_from_base_states,
    merge_states,
    validate_cube_args,
)
from ..engine.expressions import Expression
from ..engine.table import Table
from ..engine.types import Row
from ..errors import ReproError, ShardError
from ..obs import Counter, Histogram, get_registry, phase
from .planner import ShardPlan, plan_shards
from .pool import discard_pool, get_pool
from .tasks import (
    CubeTask,
    ShardCacheMiss,
    ShardStates,
    run_cube_task,
    shard_table_payload,
)

#: Modes for executing shard tasks.
MODE_PROCESS = "process"
MODE_INLINE = "inline"

_SESSION_IDS = count(1)


def resolve_shard_count(explicit: Optional[int] = None) -> int:
    """The effective shard count: explicit arg, else ``REPRO_SHARDS``, else 1."""
    if explicit is not None:
        return max(1, int(explicit))
    raw = os.environ.get("REPRO_SHARDS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        warnings.warn(
            f"ignoring non-integer REPRO_SHARDS={raw!r}", RuntimeWarning
        )
        return 1


def resolve_shard_mode(explicit: Optional[str] = None) -> str:
    """``process`` (default) or ``inline`` (``REPRO_SHARD_MODE``)."""
    mode = explicit or os.environ.get("REPRO_SHARD_MODE", MODE_PROCESS)
    if mode not in (MODE_PROCESS, MODE_INLINE):
        raise ShardError(
            f"unknown shard mode {mode!r}; choose "
            f"{MODE_PROCESS!r} or {MODE_INLINE!r}"
        )
    return mode


def _task_timeout() -> float:
    raw = os.environ.get("REPRO_SHARD_TIMEOUT", "").strip()
    try:
        return float(raw) if raw else 60.0
    except ValueError:
        return 60.0


def _task_histogram(shard: int) -> Histogram:
    return get_registry().histogram(
        "repro_shard_task_seconds",
        labels={"shard": str(shard)},
        help="Wall-clock seconds of one shard's cube task.",
    )


def _retry_counter() -> Counter:
    return get_registry().counter(
        "repro_shard_retries_total",
        help="Shard tasks retried after a worker-side cache miss.",
    )


def _fallback_counter(reason: str) -> Counter:
    return get_registry().counter(
        "repro_shard_fallbacks_total",
        labels={"reason": reason},
        help="Sharded cube builds that degraded to serial execution.",
    )


def _count_total(states_seq: Sequence[Dict[Row, GroupState]]) -> int:
    """Total row count across count-only base states.

    On the count-only path every :data:`GroupState` is an ``int``; this
    narrows the union for the type checker and turns a miswired state
    (a list where a count belongs) into a :class:`ShardError` instead
    of a ``TypeError`` deep inside ``sum``.
    """
    total = 0
    for states in states_seq:
        for state in states.values():
            if not isinstance(state, int):
                raise ShardError(
                    "count-only merge saw a non-integer group state "
                    f"({type(state).__name__})"
                )
            total += state
    return total


def merge_shard_states(
    partials: Sequence[Dict[Row, GroupState]],
    aggregates: Sequence[AggregateSpec],
    count_only: bool,
) -> Dict[Row, GroupState]:
    """Pairwise reduction tree over per-shard base states.

    Each merge step checks conservation — the merged key set must be
    exactly the union of its inputs, and on the count-only path the
    total count must be the sum — so a non-associative (buggy) merge
    surfaces as a loud :class:`~repro.errors.ShardError` instead of a
    silently wrong table.  The inputs are consumed (merged in place).
    """
    if not partials:
        return {}
    expected_keys: Set[Row] = set()
    for p in partials:
        expected_keys.update(p)
    expected_total = _count_total(partials) if count_only else None
    level: List[Dict[Row, GroupState]] = list(partials)
    while len(level) > 1:
        merged_level: List[Dict[Row, GroupState]] = []
        for i in range(0, len(level) - 1, 2):
            dst, src = level[i], level[i + 1]
            union = set(dst) | set(src)
            merge_states(dst, src, aggregates, count_only)
            if set(dst) != union:
                raise ShardError(
                    "shard merge lost or invented groups "
                    f"({len(dst)} merged vs {len(union)} expected)"
                )
            merged_level.append(dst)
        if len(level) % 2:
            merged_level.append(level[-1])
        level = merged_level
    merged = level[0]
    if set(merged) != expected_keys:
        raise ShardError(
            "shard reduction dropped groups: "
            f"{len(merged)} merged vs {len(expected_keys)} expected"
        )
    if expected_total is not None:
        merged_total = _count_total((merged,))
        if merged_total != expected_total:
            raise ShardError(
                f"shard reduction lost rows: merged count {merged_total} "
                f"!= scattered count {expected_total}"
            )
    return merged


class ShardedCubeSession:
    """Scatter one table; answer many cube calls over its shards.

    Parameters
    ----------
    table:
        The (universal) table to partition.  It is projected down to
        ``columns`` (when given) before partitioning, so workers never
        hold columns no cube will touch.
    attributes:
        The cube dimensions every call will group by (used for driver
        key defaulting and validation).
    shards:
        Number of partitions; 1 short-circuits to serial execution.
    driver_key:
        Partition column; defaults to the first attribute.
    columns:
        The full set of columns workers need (dimensions, aggregate
        arguments, predicate columns).  Defaults to all of ``table``.
    mode / timeout:
        Override the environment-derived execution mode and per-task
        timeout.
    """

    def __init__(
        self,
        table: Table,
        attributes: Sequence[str],
        *,
        shards: int,
        driver_key: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
        mode: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.shards = max(1, int(shards))
        self.mode = resolve_shard_mode(mode)
        self.timeout = timeout if timeout is not None else _task_timeout()
        self.attributes = tuple(attributes)
        needed = list(
            dict.fromkeys((*self.attributes, *(columns or table.columns)))
        )
        self._table = table.project(needed)
        self.driver_key = driver_key or (
            self.attributes[0] if self.attributes else needed[0]
        )
        self._table.position(self.driver_key)
        self._plan: Optional[ShardPlan] = None
        self._scattered = False
        self._token = f"{os.getpid()}-{next(_SESSION_IDS)}"
        #: Test seam: shard indexes whose next task dies mid-run.
        self._crash_shards: Set[int] = set()

    # -- planning -----------------------------------------------------------

    @property
    def plan(self) -> ShardPlan:
        if self._plan is None:
            with phase(
                "shard.plan", rows=len(self._table), shards=self.shards
            ) as ph:
                self._plan = plan_shards(
                    self._table, self.shards, self.driver_key
                )
                ph.annotate(sizes=self._plan.sizes)
        return self._plan

    # -- the cube -----------------------------------------------------------

    def cube(
        self,
        where: Optional[Expression],
        dimensions: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> Table:
        """``cube(σ_where(table), dimensions, aggregates)``, fanned out.

        Content-identical (same rows, possibly different row order) to
        the serial :func:`repro.engine.cube.cube` over the filtered
        table at every shard count.
        """
        validate_cube_args(self._table, dimensions, aggregates)
        dims = tuple(dimensions)
        aggs = tuple(aggregates)
        with phase(
            "cube.sharded", shards=self.shards, mode=self.mode
        ) as ph:
            if self.shards <= 1:
                merged, count_only = self._serial_states(where, dims, aggs)
            else:
                try:
                    merged, count_only = self._fanout_states(
                        where, dims, aggs
                    )
                except ReproError:
                    raise
                except Exception as exc:
                    merged, count_only = self._degrade(
                        exc, where, dims, aggs
                    )
            ph.annotate(groups=len(merged))
            return cube_from_base_states(merged, dims, aggs, count_only)

    def _serial_states(
        self,
        where: Optional[Expression],
        dims: Tuple[str, ...],
        aggs: Tuple[AggregateSpec, ...],
    ) -> Tuple[Dict[Row, GroupState], bool]:
        source = self._table if where is None else self._table.filter(where)
        return base_states(source, dims, aggs)

    def _degrade(
        self,
        exc: Exception,
        where: Optional[Expression],
        dims: Tuple[str, ...],
        aggs: Tuple[AggregateSpec, ...],
    ) -> Tuple[Dict[Row, GroupState], bool]:
        """Serial fallback after an infrastructure failure."""
        discard_pool(self.shards)
        self._scattered = False
        _fallback_counter(type(exc).__name__).inc()
        warnings.warn(
            f"sharded cube execution failed ({type(exc).__name__}: {exc}); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=3,
        )
        return self._serial_states(where, dims, aggs)

    def _fanout_states(
        self,
        where: Optional[Expression],
        dims: Tuple[str, ...],
        aggs: Tuple[AggregateSpec, ...],
    ) -> Tuple[Dict[Row, GroupState], bool]:
        plan = self.plan
        if self.mode == MODE_INLINE:
            results = [
                run_cube_task(
                    CubeTask(
                        token=self._token,
                        shard=i,
                        dimensions=dims,
                        aggregates=aggs,
                        where=where,
                        columns=tuple(sl.columns),
                        data=tuple(tuple(c) for c in sl.column_arrays()),
                    )
                )
                for i, sl in enumerate(plan.slices)
            ]
            shard_results = [
                r for r in results if isinstance(r, ShardStates)
            ]
        else:
            shard_results = self._pool_round(plan, where, dims, aggs)
        if len(shard_results) != self.shards:
            raise ShardError(
                f"expected {self.shards} shard results, "
                f"got {len(shard_results)}"
            )
        for r in shard_results:
            _task_histogram(r.shard).observe(r.elapsed)
        count_only = shard_results[0].count_only
        merged = merge_shard_states(
            [r.states for r in shard_results], aggs, count_only
        )
        return merged, count_only

    def _pool_round(
        self,
        plan: ShardPlan,
        where: Optional[Expression],
        dims: Tuple[str, ...],
        aggs: Tuple[AggregateSpec, ...],
    ) -> List[ShardStates]:
        pool = get_pool(self.shards)
        crash = self._crash_shards
        self._crash_shards = set()

        def make_task(shard: int, with_data: bool) -> CubeTask:
            columns = data = None
            if with_data:
                columns, data = shard_table_payload(plan.slices[shard])
            return CubeTask(
                token=self._token,
                shard=shard,
                dimensions=dims,
                aggregates=aggs,
                where=where,
                columns=columns,
                data=data,
                crash_for_test=shard in crash,
            )

        scatter = not self._scattered
        futures = [
            (i, pool.submit(make_task(i, with_data=scatter)))
            for i in range(self.shards)
        ]
        results: List[ShardStates] = []
        misses: List[int] = []
        for shard, future in futures:
            result = future.result(timeout=self.timeout)
            if isinstance(result, ShardCacheMiss):
                misses.append(shard)
            elif isinstance(result, ShardStates):
                results.append(result)
            else:  # pragma: no cover - defensive
                raise ShardError(
                    f"unexpected shard result {type(result).__name__}"
                )
        if misses:
            # A restarted (or never-scattered) worker lost its slice:
            # re-scatter those shards and retry once.
            _retry_counter().inc(len(misses))
            retry = [
                (i, pool.submit(make_task(i, with_data=True)))
                for i in misses
            ]
            for shard, future in retry:
                result = future.result(timeout=self.timeout)
                if not isinstance(result, ShardStates):
                    raise ShardError(
                        f"shard {shard} failed after re-scatter"
                    )
                results.append(result)
        self._scattered = True
        results.sort(key=lambda r: r.shard)
        return results
