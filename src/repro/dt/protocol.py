"""Drivers for running distributed-tracking instances end to end.

These helpers wire a coordinator, ``h`` participants and a star network
together, feed them an increment sequence, and report when maturity was
declared plus the full message accounting.  They make the protocol usable
(and testable, and benchmarkable) in isolation from RTS — the reduction of
Section 4 then maps endpoint-tree nodes onto participants.

Also provided is :class:`NaiveTracker`, the strawman of Section 3.2 that
forwards every counter increment to the coordinator: correct, but costing
``tau`` messages against the protocol's ``O(h log tau)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from .coordinator import Coordinator
from .messages import MessageType
from .network import StarNetwork
from .participant import Participant


@dataclass(slots=True)
class TrackingResult:
    """Outcome of driving one DT instance over an increment sequence.

    Attributes
    ----------
    matured_at_step:
        1-based index of the increment on which maturity was declared, or
        None when the sequence ended first.
    total_collected:
        The counter sum the coordinator saw at maturity (>= tau), or None.
    messages:
        Total messages transmitted.
    words:
        Total words transmitted (== messages; every message is one word).
    rounds:
        Completed normal rounds.
    per_type:
        Message count per :class:`~repro.dt.messages.MessageType`.
    """

    matured_at_step: Optional[int]
    total_collected: Optional[int]
    messages: int
    words: int
    rounds: int
    per_type: Dict[MessageType, int] = field(default_factory=dict)

    @property
    def matured(self) -> bool:
        return self.matured_at_step is not None


def run_tracking(
    h: int,
    tau: int,
    increments: Iterable[Tuple[int, int]],
    trace: bool = False,
    obs=None,
) -> TrackingResult:
    """Run the (weighted) DT protocol over an increment sequence.

    Parameters
    ----------
    h:
        Number of participants.
    tau:
        Maturity threshold.
    increments:
        Sequence of ``(site, delta)``: at each timestamp, participant
        ``site`` (0-based) increases its counter by ``delta >= 1``.  Pass
        ``delta=1`` everywhere for the unweighted problem of Section 3.2.
    trace:
        Keep the full message log on the returned network (tests).
    obs:
        Optional :class:`~repro.obs.Observability` sink: per-message-type
        counts, slack announcements, round transitions, and participant
        mode changes are emitted into it.

    The driver stops at maturity; later increments are not consumed.
    """
    network = StarNetwork(trace=trace, obs=obs)
    coordinator = Coordinator(h=h, tau=tau, network=network, obs=obs)
    participants = [Participant(i, network, obs=obs) for i in range(h)]
    coordinator.start()
    matured_step = None
    for step, (site, delta) in enumerate(increments, start=1):
        if not 0 <= site < h:
            raise ValueError(f"site {site} out of range for h={h}")
        participants[site].increase(delta)
        if coordinator.matured:
            matured_step = step
            break
    result = TrackingResult(
        matured_at_step=matured_step,
        total_collected=coordinator.matured_at,
        messages=network.messages_sent,
        words=network.words_sent,
        rounds=coordinator.rounds,
        per_type=dict(network.per_type),
    )
    coordinator.close()
    for participant in participants:
        participant.close()
    return result


def run_unweighted(
    h: int, tau: int, sites: Iterable[int], trace: bool = False, obs=None
) -> TrackingResult:
    """Convenience wrapper for the unweighted problem (all deltas 1)."""
    return run_tracking(h, tau, ((site, 1) for site in sites), trace=trace, obs=obs)


class NaiveTracker:
    """The straightforward solution: every increment costs one message.

    Used as the communication baseline: ``tau`` messages at maturity
    versus the protocol's ``O(h log tau)``.
    """

    __slots__ = ("h", "tau", "total", "messages", "matured_at")

    def __init__(self, h: int, tau: int):
        if h < 1 or tau < 1:
            raise ValueError("h and tau must be positive")
        self.h = h
        self.tau = tau
        self.total = 0
        self.messages = 0
        self.matured_at: Optional[int] = None

    def increase(self, site: int, delta: int = 1) -> None:
        if not 0 <= site < self.h:
            raise ValueError(f"site {site} out of range for h={self.h}")
        if self.matured_at is not None:
            return
        self.total += delta
        self.messages += 1  # the participant informs the coordinator
        if self.total >= self.tau:
            self.matured_at = self.total

    @property
    def matured(self) -> bool:
        return self.matured_at is not None


def run_naive(
    h: int, tau: int, increments: Iterable[Tuple[int, int]]
) -> TrackingResult:
    """Drive :class:`NaiveTracker` over the same input shape."""
    tracker = NaiveTracker(h, tau)
    matured_step = None
    for step, (site, delta) in enumerate(increments, start=1):
        tracker.increase(site, delta)
        if tracker.matured:
            matured_step = step
            break
    return TrackingResult(
        matured_at_step=matured_step,
        total_collected=tracker.matured_at,
        messages=tracker.messages,
        words=tracker.messages,
        rounds=0,
        per_type={},
    )
