"""Sharded partition-parallel cube execution.

This package spreads one cube build across CPU cores while keeping
the result byte-identical to serial execution:

* :mod:`~repro.parallel.planner` hash-partitions the universal table
  by a driver key into N disjoint, deterministic slices;
* :mod:`~repro.parallel.pool` pins each shard to one spawned worker
  process and keeps pools warm across requests;
* :mod:`~repro.parallel.tasks` defines the picklable task protocol
  and the worker-side scatter-once slice cache;
* :mod:`~repro.parallel.executor` scatters, fans out, merges partial
  cube states through an associativity-checked reduction tree, and
  degrades gracefully to serial execution on infrastructure failure.

Configure with ``REPRO_SHARDS`` / ``--shards N`` (see
``docs/sharding.md``); ``REPRO_SHARD_MODE=inline`` runs the same
partition/merge pipeline in-process for deterministic tests.
"""

from .executor import (
    MODE_INLINE,
    MODE_PROCESS,
    ShardedCubeSession,
    merge_shard_states,
    resolve_shard_count,
    resolve_shard_mode,
)
from .planner import (
    ShardPlan,
    canonical_shard_bytes,
    choose_driver_key,
    plan_shards,
    shard_of,
)
from .pool import ShardPool, discard_pool, get_pool, shutdown_pools
from .tasks import CubeTask, ShardCacheMiss, ShardStates, run_cube_task

__all__ = [
    "MODE_INLINE",
    "MODE_PROCESS",
    "CubeTask",
    "ShardCacheMiss",
    "ShardPlan",
    "ShardPool",
    "ShardStates",
    "ShardedCubeSession",
    "canonical_shard_bytes",
    "choose_driver_key",
    "discard_pool",
    "get_pool",
    "merge_shard_states",
    "plan_shards",
    "resolve_shard_count",
    "resolve_shard_mode",
    "run_cube_task",
    "shard_of",
    "shutdown_pools",
]
