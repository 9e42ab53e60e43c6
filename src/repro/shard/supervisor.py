"""Shard fault injection and the ``"supervised"`` executor preset.

Supervision itself — RPC deadlines with retry, restart with checkpoint
and journal replay, exactly-once event suppression, quarantine — lives
in :class:`~repro.shard.executor.ParallelExecutor`, whose defaults turn
restarts off.  :class:`SupervisedExecutor` is the preset that turns them
on: a 30 s RPC deadline and three restarts per shard.

Fault injection for tests and the chaos harness is seeded and
in-worker: a :class:`ShardFaultPlan` (the shard-layer analogue of
``dt/faults.py``) schedules crash/hang/slow faults on per-shard batch
ordinals, threaded to the worker through its config.  Replayed batches
carry no ordinal, so a fault never re-fires during recovery; fired
crash/hang points are stripped before the restarted worker's config is
rebuilt, making every fault point one-shot.

See ``docs/ROBUSTNESS.md``, "Shard supervision", for the restart/replay
semantics and the determinism contract across restarts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .executor import ParallelExecutor

__all__ = ["ShardFaultPlan", "SupervisedExecutor"]


def _ordinal_map(raw: Optional[Dict[int, Tuple[int, ...]]]) -> Dict[int, Tuple[int, ...]]:
    out: Dict[int, Tuple[int, ...]] = {}
    for shard, ticks in (raw or {}).items():
        ordered = tuple(sorted(set(int(t) for t in ticks)))
        if any(t < 1 for t in ordered):
            raise ValueError(
                f"fault ordinals are 1-based batch indices; got {ticks!r} "
                f"for shard {shard}"
            )
        if ordered:
            out[int(shard)] = ordered
    return out


@dataclass(frozen=True)
class ShardFaultPlan:
    """Seeded in-worker fault schedule, keyed by per-shard batch ordinal.

    Ordinal ``t`` means the shard's ``t``-th *fresh* routed batch
    (1-based; replayed batches never count).  ``crash`` kills the worker
    process outright (``os._exit``, no cleanup — indistinguishable from
    a segfault), ``hang`` sleeps ``hang_seconds`` so the parent's RPC
    deadline expires, ``slow`` sleeps ``slow_seconds`` and then answers
    normally (exercises retry without a restart).
    """

    crash: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    hang: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    slow: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    hang_seconds: float = 3600.0
    slow_seconds: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "crash", _ordinal_map(self.crash))
        object.__setattr__(self, "hang", _ordinal_map(self.hang))
        object.__setattr__(self, "slow", _ordinal_map(self.slow))
        if self.hang_seconds < 0 or self.slow_seconds < 0:
            raise ValueError("fault sleep durations must be non-negative")

    @property
    def total_crashes(self) -> int:
        """Number of scheduled crash points (== restarts a clean run incurs)."""
        return sum(len(ticks) for ticks in self.crash.values())

    @classmethod
    def seeded(
        cls,
        shards: int,
        batches: int,
        crashes: int = 2,
        hangs: int = 0,
        slows: int = 0,
        seed: int = 0,
        batches_per_shard: Optional[List[int]] = None,
        **kwargs,
    ) -> "ShardFaultPlan":
        """Draw distinct ``(shard, ordinal)`` fault points from one seed.

        ``batches_per_shard`` bounds each shard's ordinals individually
        (shards that receive fewer batches get a smaller range); when
        omitted every shard uses ``batches``.
        """
        rng = random.Random(seed)
        per_shard = (
            list(batches_per_shard)
            if batches_per_shard is not None
            else [batches] * shards
        )
        cells = [
            (k, t) for k in range(shards) for t in range(1, per_shard[k] + 1)
        ]
        want = min(crashes + hangs + slows, len(cells))
        picks = rng.sample(cells, want)
        buckets: List[Dict[int, List[int]]] = [{}, {}, {}]
        quotas = [crashes, hangs, slows]
        i = 0
        for bucket, quota in zip(buckets, quotas):
            for shard, tick in picks[i : i + quota]:
                bucket.setdefault(shard, []).append(tick)
            i += quota
        return cls(
            crash={k: tuple(v) for k, v in buckets[0].items()},
            hang={k: tuple(v) for k, v in buckets[1].items()},
            slow={k: tuple(v) for k, v in buckets[2].items()},
            **kwargs,
        )


class SupervisedExecutor(ParallelExecutor):
    """:class:`~repro.shard.executor.ParallelExecutor` with restarts on.

    Takes the same options; only the defaults of ``rpc_timeout`` (30 s)
    and ``max_restarts`` (3) differ.
    """

    name = "supervised"

    def __init__(
        self,
        mp_context: Optional[str] = None,
        *,
        rpc_timeout: Optional[float] = 30.0,
        max_restarts: int = 3,
        **options,
    ) -> None:
        super().__init__(
            mp_context, rpc_timeout=rpc_timeout, max_restarts=max_restarts, **options
        )
