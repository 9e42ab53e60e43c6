"""Participant-side logic of distributed tracking (Sections 3.2 and 7).

A participant owns one integer counter.  Its entire protocol obligation is
local: compare the counter's growth since the last signal against the
round's slack and emit one-bit signals accordingly.  In the weighted
variant (Section 7) a single increment may cover several slacks, so the
participant keeps signalling — "repeat Line 1" — until either the residual
drops below the slack or the coordinator has declared the round over.  In
the final phase it simply forwards every increment as a weighted delta.
"""

from __future__ import annotations

import enum

from ..obs.observer import NULL_OBS
from ..obs.trace import SpanContext
from .messages import COORDINATOR, Message, MessageType
from .network import StarNetwork


class ParticipantMode(enum.Enum):
    IDLE = "idle"  # before the first SLACK / after maturity
    ROUND = "round"  # normal round: slack rule in force
    FINAL = "final"  # straightforward phase: forward all increments


class Participant:
    """One tracking site ``s_i`` with counter ``c_i``.

    Holds a network attachment until :meth:`close`.

    rtscheck: resource
    """

    __slots__ = (
        "index",
        "network",
        "c",
        "cbar",
        "lam",
        "mode",
        "obs",
    )

    def __init__(self, index: int, network: StarNetwork, obs=NULL_OBS):
        self.index = index
        self.network = network
        self.c = 0  # cumulative counter (never reset)
        self.cbar = 0  # counter value at the last signal / round start
        self.lam = 0
        self.mode = ParticipantMode.IDLE
        self.obs = obs if obs is not None else NULL_OBS
        network.attach(index, self.handle)

    # -- local event ------------------------------------------------------

    def increase(self, delta: int = 1) -> None:
        """Local counter increment (the only external stimulus).

        In the unweighted problem ``delta`` is 1; the weighted variant
        allows any positive integer.
        """
        if delta < 1:
            raise ValueError(f"counter increments must be positive, got {delta}")
        self.c += delta
        if self.mode is ParticipantMode.IDLE:
            # No round in force (before the first SLACK, or after the
            # round that declared maturity): increments only accumulate.
            return
        if self.mode is ParticipantMode.FINAL:
            # Forward the whole increment as one weighted message.
            self.cbar = self.c
            self._send(MessageType.SIGNAL, payload=delta)
            return
        # A signal that ends the round runs the round end before _send
        # returns: the site then is IDLE or FINAL, or in a new round with
        # cbar = c, and the loop stops.
        while (
            self.mode is ParticipantMode.ROUND
            and self.c - self.cbar >= self.lam
        ):
            self.cbar += self.lam
            self._send(MessageType.SIGNAL)

    # -- protocol messages ------------------------------------------------

    def handle(self, message: Message) -> None:
        """React to a coordinator message."""
        if self.obs.enabled and message.mtype is not MessageType.COLLECT:
            # Every branch below (except COLLECT) changes the mode.
            self.obs.dt_participant_mode(self.index, message.mtype.value)
        if message.mtype is MessageType.SLACK:
            # New round: slack announced; growth is measured from here.
            self.lam = message.payload
            self.cbar = self.c
            self.mode = ParticipantMode.ROUND
        elif message.mtype is MessageType.COLLECT:
            if self.obs.enabled and message.trace is not None:
                # Record this site's collection as a child of the
                # coordinator's round span (propagated in the COLLECT).
                ctx = self.obs.new_span(SpanContext.from_wire(message.trace))
                self.obs.span(
                    "dt.participant_collect",
                    ctx,
                    participant=self.index,
                    counter=self.c,
                )
            # The reply echoes the trace context, so it stays attributable
            # to its round.
            self._send(MessageType.REPORT, payload=self.c, trace=message.trace)
        elif message.mtype is MessageType.ROUND_END:
            # Stop signalling until the next SLACK (or FINAL_PHASE).
            self.mode = ParticipantMode.IDLE
        elif message.mtype is MessageType.FINAL_PHASE:
            self.mode = ParticipantMode.FINAL
            self.cbar = self.c
        else:
            raise ValueError(f"participant got unexpected message {message!r}")

    def _send(self, mtype: MessageType, payload=None, trace=None) -> None:
        self.network.send(
            Message(
                mtype=mtype,
                src=self.index,
                dst=COORDINATOR,
                payload=payload,
                trace=trace,
            )
        )

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Detach from the network (teardown; inverse of construction)."""
        self.network.detach(self.index)

    def __repr__(self) -> str:
        return (
            f"Participant(s{self.index + 1}, c={self.c}, cbar={self.cbar}, "
            f"lam={self.lam}, {self.mode.value})"
        )
