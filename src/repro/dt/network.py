"""Star-topology message channel with cost accounting.

The network simulates the only communication pattern distributed tracking
needs: coordinator <-> participant.  Delivery is synchronous (a send
invokes the receiver's handler before returning), which models the paper's
setting where message latency is irrelevant and only the *count* matters.
An optional trace retains messages for inspection in tests and examples.

This is the *ideal* channel of the Section 3.2 analysis — every message
arrives exactly once, in order, instantly.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .messages import COORDINATOR, Message, MessageType

Handler = Callable[[Message], None]


class StarNetwork:
    """Routes messages between one coordinator and ``h`` participants.

    Parameters
    ----------
    trace:
        When True, every delivered message is kept in :attr:`log`
        (memory-proportional to the message bound, so fine for tests;
        off by default for benchmarks).
    obs:
        Optional :class:`~repro.obs.Observability` sink; every delivery
        then also bumps the ``rts_dt_messages_total{type=...}`` counter.
    """

    __slots__ = (
        "_handlers",
        "messages_sent",
        "words_sent",
        "log",
        "_trace",
        "per_type",
        "_obs",
    )

    def __init__(self, trace: bool = False, obs=None):
        self._handlers: Dict[int, Handler] = {}
        self.messages_sent = 0
        self.words_sent = 0
        self.per_type: Dict[MessageType, int] = {t: 0 for t in MessageType}
        self._trace = trace
        self._obs = obs if obs is not None and obs.enabled else None
        self.log: List[Message] = []

    def attach(self, address: int, handler: Handler) -> None:
        """Register the handler for an address (coordinator = -1)."""
        if address in self._handlers:
            raise ValueError(f"address {address} already attached")
        self._handlers[address] = handler

    def detach(self, address: int) -> None:
        """Unregister an address so the handler table cannot leak entries
        across protocol instances sharing one network."""
        if address not in self._handlers:
            raise KeyError(f"address {address} is not attached")
        del self._handlers[address]

    def attached(self, address: int) -> bool:
        """True when a handler is registered at the address."""
        return address in self._handlers

    def send(self, message: Message) -> None:
        """Deliver one message synchronously, charging its cost."""
        if message.src != COORDINATOR and message.dst != COORDINATOR:
            raise ValueError(
                f"participants may not talk to each other: {message!r}"
            )
        self.messages_sent += 1
        self.words_sent += message.words
        self.per_type[message.mtype] += 1
        if self._obs is not None:
            self._obs.inc("rts_dt_messages_total", type=message.mtype.value)
        if self._trace:
            self.log.append(message)
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise KeyError(f"no handler attached at address {message.dst}")
        handler(message)

    def reset_stats(self) -> None:
        """Zero the counters (the handler table is kept)."""
        self.messages_sent = 0
        self.words_sent = 0
        self.per_type = {t: 0 for t in MessageType}
        self.log = []

    def __repr__(self) -> str:
        return (
            f"StarNetwork(messages={self.messages_sent}, "
            f"words={self.words_sent})"
        )
