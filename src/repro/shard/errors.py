"""Structured shard failures: every error names its shard and operation.

The executor RPC surface used to surface bare :mod:`concurrent.futures`
exceptions — a ``BrokenProcessPool`` with no hint of *which* shard died
or *what* it was doing.  These types carry that attribution:

:class:`ShardRPCError`
    One RPC to one shard failed.  Raised by
    :class:`~repro.shard.executor.ParallelExecutor` for worker-side
    application errors (which no restart can fix) and for calls that
    reach a quarantined shard.

:class:`ShardFailedError`
    A :class:`ShardRPCError` for a shard that died past its restart
    budget under ``on_shard_failure="fail"``.  Carries the restart count
    and the final cause so the operator log shows the whole escalation.
    With restarts off (the ``"parallel"`` default) the first worker
    death raises it.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ShardError", "ShardFailedError", "ShardRPCError"]


class ShardError(RuntimeError):
    """Base class of structured shard-execution failures."""


class ShardRPCError(ShardError):
    """One executor RPC to one shard failed.

    Attributes
    ----------
    shard:
        Index of the shard the call targeted.
    op:
        Operation name (``"register"``, ``"process"``, ``"terminate"``,
        ``"snapshot"``, ``"collected_weight"``, ``"drain_telemetry"``,
        ``"describe"``, or a ``"replay:*"`` form during recovery).
    cause:
        The underlying exception (also chained as ``__cause__``).
    """

    def __init__(self, shard: int, op: str, cause: Optional[BaseException]):
        self.shard = shard
        self.op = op
        self.cause = cause
        super().__init__(f"shard {shard}: {op} RPC failed: {cause!r}")


class ShardFailedError(ShardRPCError):
    """A shard died for good: its restart budget is exhausted.

    Raised by :class:`~repro.shard.executor.ParallelExecutor` under
    ``on_shard_failure="fail"``; under ``"degrade"`` the shard is
    quarantined with loss accounting instead (see ``docs/ROBUSTNESS.md``,
    "Shard supervision").
    """

    def __init__(
        self,
        shard: int,
        op: str,
        restarts: int,
        cause: Optional[BaseException],
    ):
        super().__init__(shard, op, cause)
        self.restarts = restarts
        self.args = (
            f"shard {shard} failed permanently after {restarts} restart(s); "
            f"last failure during {op}: {cause!r}",
        )
