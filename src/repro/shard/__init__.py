"""Sharded parallel RTS: query partitioning with a deterministic merge.

Public surface of the sharding subsystem (see ``docs/SHARDING.md`` and,
for supervision, ``docs/ROBUSTNESS.md``):

* :class:`ShardedRTSSystem` — the multi-shard façade mirroring
  :class:`~repro.core.system.RTSSystem`.
* Partition policies — :class:`RoundRobinPolicy`, :class:`RectHashPolicy`,
  :class:`SpatialGridPolicy`, plus the :func:`make_policy` /
  :func:`available_policies` registry.
* Shard executors — :class:`SerialExecutor` (in-process determinism
  oracle) and :class:`ParallelExecutor` (persistent worker processes,
  with deadlines, restart and replay recovery built in but restarts
  off by default).  :class:`SupervisedExecutor` is its preset with
  restarts on.  :func:`make_executor` / :func:`available_executors`
  map the ``"serial"``, ``"parallel"`` and ``"supervised"`` names.
* Structured failures — :class:`ShardRPCError` (per-call shard/op
  attribution) and :class:`ShardFailedError` (restart budget exhausted),
  and the :class:`ShardFaultPlan` seeded fault-injection schedule.
"""

from .errors import ShardError, ShardFailedError, ShardRPCError
from .executor import (
    ParallelExecutor,
    SerialExecutor,
    ShardExecutor,
    available_executors,
    make_executor,
)
from .partition import (
    PartitionPolicy,
    RectHashPolicy,
    RoundRobinPolicy,
    SpatialGridPolicy,
    available_policies,
    make_policy,
    stable_rect_hash,
)
from .supervisor import ShardFaultPlan, SupervisedExecutor
from .system import SHARD_SNAPSHOT_FORMAT, ShardedRTSSystem

__all__ = [
    "SHARD_SNAPSHOT_FORMAT",
    "ShardedRTSSystem",
    "PartitionPolicy",
    "RoundRobinPolicy",
    "RectHashPolicy",
    "SpatialGridPolicy",
    "stable_rect_hash",
    "available_policies",
    "make_policy",
    "ShardExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "SupervisedExecutor",
    "ShardFaultPlan",
    "ShardError",
    "ShardRPCError",
    "ShardFailedError",
    "available_executors",
    "make_executor",
]
