# rtscheck: disable-file=det-wallclock (phase timing is this module's
# purpose; rts_phase_seconds is cataloged deterministic=False)
"""Low-overhead phase profiler feeding ``rts_phase_seconds``.

The sharded hot path decomposes into phases — ``route`` (partition the
batch), ``pack`` (array-pack the input), ``descend`` (the per-shard
engine's ``process_batch``), ``merge`` (deterministic event merge), and
``recover`` (executor restart from snapshots).  The profiler times each
one into the catalog's ``rts_phase_seconds{phase=...}`` histogram.

Zero-cost when disabled: against :data:`~repro.obs.observer.NULL_OBS`
``start`` returns without reading the clock and ``stop`` returns before
computing a duration, so the disabled path is one attribute read per
call — the same contract as every other emit (the guard the
``unguarded-obs`` lint rule enforces elsewhere; this class lives in
``obs/`` and *is* the guard).
"""

from __future__ import annotations

from time import perf_counter
from typing import Tuple

#: The phase vocabulary (fixed: dashboards and the trajectory report
#: key on these names).
PHASES: Tuple[str, ...] = ("route", "pack", "descend", "merge", "recover")


class PhaseProfiler:
    """Timer facade over one :class:`~repro.obs.Observability` sink."""

    __slots__ = ("enabled", "_obs")

    def __init__(self, obs):
        self._obs = obs
        self.enabled = bool(obs.enabled)

    def start(self) -> float:
        """Clock a phase start (0.0 when profiling is off)."""
        if not self.enabled:
            return 0.0
        return perf_counter()

    def stop(self, phase: str, started: float) -> None:
        """Close a phase opened by :meth:`start`."""
        if not self.enabled:
            return
        self._obs.observe("rts_phase_seconds", perf_counter() - started, phase=phase)

    def record(self, phase: str, seconds: float) -> None:
        """Record an externally measured duration (worker busy time)."""
        if self.enabled:
            self._obs.observe("rts_phase_seconds", seconds, phase=phase)

    def __repr__(self) -> str:
        return f"PhaseProfiler(enabled={self.enabled})"


__all__ = ["PHASES", "PhaseProfiler"]
