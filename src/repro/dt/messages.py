"""Message vocabulary of the distributed-tracking protocol (Section 3.2).

The protocol is defined over a star topology: a coordinator ``q`` and
participants ``s_1 .. s_h``; participants never talk to each other.  Every
message carries at most one word of payload, so the protocol's cost is
measured simply in the number of messages — the quantity the paper bounds
by ``O(h log tau)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

#: Address of the coordinator in message routing.
COORDINATOR = -1


class MessageType(enum.Enum):
    """All message kinds exchanged by the protocol."""

    #: coordinator -> participant: announce the round's slack ``lambda``.
    SLACK = "slack"
    #: participant -> coordinator: the one-bit signal of Eq. (3); in the
    #: final phase it carries the weighted counter delta instead.
    SIGNAL = "signal"
    #: coordinator -> participant: request the precise counter.
    COLLECT = "collect"
    #: participant -> coordinator: the precise counter value.
    REPORT = "report"
    #: coordinator -> participant: the current round has finished.
    ROUND_END = "round_end"
    #: coordinator -> participant: switch to the straightforward final
    #: phase (forward every increment).
    FINAL_PHASE = "final_phase"


@dataclass(frozen=True, slots=True)
class Message:
    """One protocol message.

    Attributes
    ----------
    mtype:
        The :class:`MessageType`.
    src, dst:
        Participant index (0-based) or :data:`COORDINATOR`.
    payload:
        At most one word: the slack for SLACK, the counter for REPORT, the
        weighted delta for final-phase SIGNAL, else None.
    trace:
        Optional span-context wire tuple (``SpanContext.to_wire()``)
        propagating the coordinator's round span to participants, whose
        COLLECT replies echo it (see ``docs/OBSERVABILITY.md``).  Pure
        telemetry metadata: it never influences protocol decisions and
        is excluded from the one-word cost model (``words`` stays 1).
    """

    mtype: MessageType
    src: int
    dst: int
    payload: Optional[int] = None
    trace: Optional[tuple] = None

    @property
    def words(self) -> int:
        """Transmission cost in words (>= 1; payload adds nothing extra —
        the paper's messages are 'each one word in length')."""
        return 1

    def __repr__(self) -> str:
        def who(x: int) -> str:
            return "q" if x == COORDINATOR else f"s{x + 1}"

        tail = "" if self.payload is None else f"({self.payload})"
        return f"{who(self.src)}->{who(self.dst)}:{self.mtype.value}{tail}"
