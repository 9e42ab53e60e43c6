"""Standalone distributed tracking (Cormode–Muthukrishnan–Yi; paper
Sections 3.2 and 7) — the substrate the RTS algorithm reduces to.

A :class:`Coordinator` and ``h`` :class:`Participant` sites exchange
:class:`Message` objects over a :class:`StarNetwork`, the ideal
synchronous channel the paper's analysis assumes: every message arrives
exactly once, in order, instantly, and only the message count matters.
:func:`run_tracking` drives one instance end to end; the engine's
per-query rule (:mod:`repro.core.tracker`) makes the same decisions.
"""

from .coordinator import Coordinator
from .messages import COORDINATOR, Message, MessageType
from .network import StarNetwork
from .participant import Participant, ParticipantMode
from .protocol import (
    NaiveTracker,
    TrackingResult,
    run_naive,
    run_tracking,
    run_unweighted,
)

__all__ = [
    "COORDINATOR",
    "Coordinator",
    "Message",
    "MessageType",
    "NaiveTracker",
    "Participant",
    "ParticipantMode",
    "StarNetwork",
    "TrackingResult",
    "run_naive",
    "run_tracking",
    "run_unweighted",
]
