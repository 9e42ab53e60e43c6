"""Coordinator-side logic of distributed tracking (Sections 3.2 and 7).

The coordinator drives the round structure:

1. If the remaining threshold ``tau'`` is at most ``6h``, run the
   *straightforward* phase: ask every participant to forward each counter
   increment, and keep a running total.
2. Otherwise announce the slack ``lambda = floor(tau' / (2h))`` and count
   incoming signals.  On the ``h``-th signal, end the round: collect the
   precise counters, declare maturity if their sum reaches ``tau``, else
   subtract and start the next round.

Each round shrinks ``tau'`` by at least a third (the paper shows
``tau' <= 2 tau / 3`` from ``tau > 6h``), giving ``O(log tau)`` rounds and
``O(h log tau)`` messages overall.  The phase rule and
:data:`FINAL_PHASE_FACTOR` are the engine's
(:meth:`~repro.core.tracker.TrackerColumns.signal`).
"""

from __future__ import annotations

from typing import Optional

from ..core.tracker import FINAL_PHASE_FACTOR
from ..obs.observer import NULL_OBS
from .messages import COORDINATOR, Message, MessageType
from .network import StarNetwork


class Coordinator:
    """The tracking coordinator ``q``.

    Holds a network attachment until :meth:`close`.

    rtscheck: resource

    Parameters
    ----------
    h:
        Number of participants (addresses ``0 .. h-1`` on the network).
    tau:
        The maturity threshold (positive integer).
    network:
        The :class:`~repro.dt.network.StarNetwork` all sites share.
    obs:
        Optional :class:`~repro.obs.Observability` sink for round
        transitions and slack announcements (no-op by default).

    Attributes
    ----------
    matured_at:
        Set to the collected total when maturity is declared; None before.
    rounds:
        Number of completed normal rounds.
    """

    __slots__ = (
        "h",
        "tau",
        "network",
        "matured_at",
        "rounds",
        "_signals",
        "_final",
        "_collecting",
        "_running_total",
        "_collect_sum",
        "_collect_pending",
        "_round_ctx",
        "obs",
    )

    def __init__(self, h: int, tau: int, network: StarNetwork, obs=NULL_OBS):
        if h < 1:
            raise ValueError(f"need at least one participant, got {h}")
        if tau < 1:
            raise ValueError(f"threshold must be positive, got {tau}")
        self.h = h
        self.tau = tau
        self.network = network
        self.obs = obs if obs is not None else NULL_OBS
        self.matured_at: Optional[int] = None
        self.rounds = 0
        self._signals = 0
        self._final = False
        self._collecting = False
        self._running_total = 0  # final phase: sum of forwarded deltas
        self._collect_sum = 0
        self._collect_pending = 0
        self._round_ctx = None  # span of the round collection in flight
        network.attach(COORDINATOR, self.handle)

    # -- protocol driving ------------------------------------------------

    def start(self) -> None:
        """Open the first round (call once, before any increments)."""
        self._open_phase(self.tau, already_collected=0)

    def close(self) -> None:
        """Detach from the network (teardown; inverse of construction)."""
        self.network.detach(COORDINATOR)

    def _open_phase(self, tau_remaining: int, already_collected: int) -> None:
        self._collecting = False
        if tau_remaining <= FINAL_PHASE_FACTOR * self.h:
            self._final = True
            self._running_total = already_collected
            if self.obs.enabled:
                self.obs.dt_final_phase("coordinator", tau_remaining)
            self._broadcast(MessageType.FINAL_PHASE)
        else:
            lam = tau_remaining // (2 * self.h)
            self._signals = 0
            if self.obs.enabled:
                self.obs.dt_slack("coordinator", lam, self.h)
            self._broadcast(MessageType.SLACK, payload=lam)

    def handle(self, message: Message) -> None:
        """React to a participant message."""
        if self.matured_at is not None:
            return  # tracking is over; late messages are ignored
        if message.mtype is MessageType.SIGNAL:
            if self._final:
                self._running_total += message.payload
                if self._running_total >= self.tau:
                    self.matured_at = self._running_total
                return
            self._signals += 1
            if self._signals >= self.h:
                self._begin_collect()
        elif message.mtype is MessageType.REPORT:
            self._collect_sum += message.payload
            self._collect_pending -= 1
            if self._collect_pending == 0:
                self._finish_collect()
        else:
            raise ValueError(f"coordinator got unexpected message {message!r}")

    def _begin_collect(self) -> None:
        """The h-th signal arrived: end the round, request counters.

        The REPORTs arrive re-entrantly during the COLLECT broadcast, so
        :meth:`_finish_collect` runs before this method returns.
        """
        self.rounds += 1
        self._collecting = True
        # Tell everyone the round is over (stops further signalling), then
        # collect the precise counters.  The COLLECT broadcast carries the
        # round span's context, so each participant's reply span becomes a
        # child of this round (docs/OBSERVABILITY.md).
        self._broadcast(MessageType.ROUND_END)
        self._collect_sum = 0
        self._collect_pending = self.h
        trace = None
        if self.obs.enabled:
            self._round_ctx = self.obs.new_span()
            trace = self._round_ctx.to_wire()
        self._broadcast(MessageType.COLLECT, trace=trace)

    def _finish_collect(self) -> None:
        total = self._collect_sum
        self._collecting = False
        if self.obs.enabled:
            if self._round_ctx is not None:
                self.obs.span(
                    "dt.round_collect",
                    self._round_ctx,
                    round_no=self.rounds,
                    collected=total,
                    participants=self.h,
                )
            self.obs.dt_round_end(
                "coordinator",
                self.rounds,
                collected=total,
                remaining=max(self.tau - total, 0),
            )
        self._round_ctx = None
        if total >= self.tau:
            self.matured_at = total
            return
        self._open_phase(self.tau - total, already_collected=total)

    def _broadcast(self, mtype: MessageType, payload=None, trace=None) -> None:
        for i in range(self.h):
            self.network.send(
                Message(
                    mtype=mtype,
                    src=COORDINATOR,
                    dst=i,
                    payload=payload,
                    trace=trace,
                )
            )

    # -- introspection ------------------------------------------------------

    @property
    def matured(self) -> bool:
        return self.matured_at is not None

    def __repr__(self) -> str:
        if self._collecting:
            phase = f"collecting round {self.rounds}"
        elif self._final:
            phase = "final"
        else:
            phase = f"round {self.rounds + 1}"
        state = f"matured at {self.matured_at}" if self.matured else phase
        return f"Coordinator(h={self.h}, tau={self.tau}, {state})"
