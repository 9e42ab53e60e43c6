"""Per-query distributed-tracking state (paper Sections 3.2, 4 and 7).

Every RTS query defines a conceptual *distributed tracking* (DT) instance:
its canonical endpoint-tree nodes are the "participants" (each node's
counter ``c(u)`` is the participant's counter), and the query itself is
the "coordinator" that must capture the moment ``sum c(u) >= tau_q``.
Nothing is actually distributed — all "messages" are O(1) simulated steps
on one machine — but the DT protocol's round structure is what breaks the
quadratic barrier.

Protocol recap
--------------
With ``h`` participants and remaining threshold ``tau'``:

* **Normal round** (``tau' > 6h``): the coordinator announces the slack
  ``lambda = floor(tau' / (2h))``.  A participant signals whenever its
  counter has grown by ``lambda`` since its last signal — realised here by
  keeping ``sigma_q(u) = cbar_q(u) + lambda`` in the node's min-heap and
  signalling while ``c(u) >= sigma_q(u)`` (the weighted drain of
  Section 7: one increment may emit several signals).  When ``h`` signals
  have arrived, the coordinator collects the precise counters, checks
  maturity, subtracts, and opens the next round.  Each round removes at
  least a third of ``tau'``, so there are ``O(log tau)`` rounds.
* **Final phase** (``tau' <= 6h``): the "straightforward" protocol — every
  counter increment is forwarded (as a weighted delta) to the coordinator,
  which keeps a running total.  Realised with ``sigma_q(u) = c(u) + 1``
  re-armed after each signal, so the coordinator's work is O(1) per
  increment, giving the ``O(n + h log tau)`` CPU bound of Section 7.

The min-heap trick (Section 4, Eq. 5) makes slack inspection at a node
cost O(1) when no signal is due, regardless of how many queries share the
node: only the query with the *smallest* sigma can possibly be due.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from ..obs.observer import NULL_OBS
from ..structures.heap import AddressableMinHeap, HeapEntry
from .endpoint_tree import COUNTER_MAX, ETNode, sync_min
from .engine import WorkCounters
from .query import Query

#: The constant of the DT protocol: the "straightforward" final phase is
#: entered once the remaining threshold drops to ``6h`` or below.
FINAL_PHASE_FACTOR = 6


class TrackerState(enum.Enum):
    """Lifecycle of a query's DT instance within one endpoint tree."""

    ROUND = "round"  # normal round with positive slack
    FINAL = "final"  # straightforward final phase (tau' <= 6h)
    INERT = "inert"  # empty canonical set: the query can never mature
    DONE = "done"  # matured or terminated; detached from all heaps


class QueryTracker:
    """DT coordinator state for one query inside one endpoint tree.

    The tracker owns the query's heap entries (one per canonical node) and
    drives round transitions.  ``tau`` is the *remaining* threshold
    relative to the tree's epoch: the engine re-bases it whenever the
    query moves between trees (logarithmic method) or the tree is rebuilt
    (global rebuilding), by subtracting the weight already collected.

    Attributes
    ----------
    nodes:
        The canonical node set ``U_q`` (last-dimension nodes).  Populated
        by :class:`~repro.core.endpoint_tree.EndpointTree` construction.
    entries:
        Heap entry handles, parallel to ``nodes``.
    lam:
        Current slack ``lambda_q`` (0 while in the final phase).
    signals:
        Signals received in the current round.
    w_run:
        Final phase only: the coordinator's running total of
        ``sum c(u)``.
    msgs:
        Simulated DT messages attributable to this query alone (the
        per-instance view of ``WorkCounters.messages``), letting the
        sanitizer check the O(h log tau) bound of Section 3.2 per query.
    cnts, mins:
        The owning tree's counter store (bound by :meth:`start`): the
        tracker reads ``c(u)`` as ``cnts[u.idx]`` and, after every heap
        operation it performs at ``u``, writes the new ``min H(u)`` into
        ``mins[u.idx]``.
    """

    __slots__ = (
        "query",
        "tau",
        "consumed",
        "nodes",
        "entries",
        "state",
        "lam",
        "signals",
        "w_run",
        "rounds_run",
        "msgs",
        "cnts",
        "mins",
    )

    def __init__(self, query: Query, tau: int, consumed: int = 0):
        if tau < 1:
            raise ValueError(f"remaining threshold must be >= 1, got {tau}")
        if consumed < 0:
            raise ValueError(f"consumed weight must be >= 0, got {consumed}")
        self.query = query
        self.tau = tau
        #: weight already collected in previous tree epochs (re-basing
        #: offset), so maturity reports the lifetime total W(q).
        self.consumed = consumed
        self.nodes: List[ETNode] = []
        self.entries: List[HeapEntry] = []
        self.state = TrackerState.INERT
        self.lam = 0
        self.signals = 0
        self.w_run = 0
        self.rounds_run = 0
        self.msgs = 0
        self.cnts = None
        self.mins = None

    # -- setup -------------------------------------------------------------

    def start(
        self,
        cnts,
        mins,
        counters: WorkCounters,
        heap_factory=AddressableMinHeap,
        obs=NULL_OBS,
    ) -> None:
        """Begin tracking on a freshly built tree (all counters zero).

        Must be called exactly once, after tree construction has filled
        ``self.nodes``; ``cnts``/``mins`` are that tree's counter store.
        Installs one sigma entry per canonical node (*unordered*: the
        owner heapifies each node's heap once after all trackers have
        started, then fills ``mins``) and opens the first round (or goes
        straight to the final phase when ``tau <= 6h``).  With every
        counter at zero the first keys are ``1`` and ``lambda``.
        ``heap_factory`` selects the per-node container (the real
        min-heap, or the scan list for the ablation).
        """
        if self.entries:
            raise RuntimeError("tracker already started")
        self.cnts = cnts
        self.mins = mins
        h = len(self.nodes)
        if h == 0:
            self.state = TrackerState.INERT
            return
        if self.tau <= FINAL_PHASE_FACTOR * h:
            self.state = TrackerState.FINAL
            self.lam = 0
            self.w_run = 0
            if obs.enabled:
                obs.dt_final_phase(self.query.query_id, self.tau)
            for node in self.nodes:
                entry = node.ensure_heap(heap_factory).push_unordered(1, self)
                self.entries.append(entry)
                counters.heap_ops += 1
        else:
            self.state = TrackerState.ROUND
            self.lam = self.tau // (2 * h)
            self.signals = 0
            # Announcing the slack costs one message per participant.
            counters.messages += h
            self.msgs += h
            if obs.enabled:
                obs.dt_messages("slack", h)
                obs.dt_slack(self.query.query_id, self.lam, h)
            for node in self.nodes:
                entry = node.ensure_heap(heap_factory).push_unordered(self.lam, self)
                self.entries.append(entry)
                counters.heap_ops += 1

    # -- signal handling ----------------------------------------------------

    def on_signal(
        self,
        node: ETNode,
        entry: HeapEntry,
        c: int,
        counters: WorkCounters,
        obs=NULL_OBS,
    ) -> Optional[int]:
        """Handle one due signal (``c(u) >= sigma_q(u)``) at ``node``.

        ``c`` is the node's counter ``c(u)``, which the draining caller
        already holds.  Returns the total collected weight ``W(q)`` when
        the query matures on this signal, else None.  On maturity the
        tracker detaches all its heap entries and transitions to DONE.

        Every key this writes is above its node's counter — at a round
        end ``c(u) + lambda'`` or ``c(u) + 1`` at every node — except
        ``sigma + lambda`` at this node, which the caller's drain re-pops
        while it is still due.  So no signal is left due anywhere.
        """
        counters.messages += 1  # the participant's one-bit signal
        self.msgs += 1
        if obs.enabled:
            obs.dt_messages("signal")
        if self.state is TrackerState.FINAL:
            # Weighted delta forwarding: sigma was cbar + 1.
            delta = c - (entry.key - 1)
            self.w_run += delta
            self._rekey(node, entry, c + 1)
            counters.heap_ops += 1
            if self.w_run >= self.tau:
                self._mature(counters)
                return self.consumed + self.w_run
            return None

        # Normal round: advance cbar by lambda (sigma += lambda); the heap
        # drain loop re-pops the entry if the weighted increment covered
        # several slacks (Section 7's "repeat Line 1").
        self.signals += 1
        self._rekey(node, entry, entry.key + self.lam)
        counters.heap_ops += 1
        if self.signals < len(self.nodes):
            return None
        return self._end_round(counters, obs)

    def _end_round(self, counters: WorkCounters, obs=NULL_OBS) -> Optional[int]:
        """Round boundary: collect counters, check maturity, re-slack."""
        h = len(self.nodes)
        # Collecting precise counters: one request + one reply per site.
        counters.messages += 2 * h
        self.msgs += 2 * h
        counters.rounds += 1
        self.rounds_run += 1
        cnts = self.cnts
        counts = [cnts.item(node.idx) for node in self.nodes]
        w_now = sum(counts)
        if obs.enabled:
            obs.dt_messages("collect", h)
            obs.dt_messages("report", h)
            obs.dt_round_end(
                self.query.query_id,
                self.rounds_run,
                collected=w_now,
                remaining=max(self.tau - w_now, 0),
            )
        if w_now >= self.tau:
            self._mature(counters)
            return self.consumed + w_now
        tau_prime = self.tau - w_now
        if tau_prime <= FINAL_PHASE_FACTOR * h:
            self.state = TrackerState.FINAL
            self.lam = 0
            self.w_run = w_now
            if obs.enabled:
                obs.dt_final_phase(self.query.query_id, tau_prime)
            for node, entry, c in zip(self.nodes, self.entries, counts):
                self._rekey(node, entry, c + 1)
                counters.heap_ops += 1
        else:
            self.lam = tau_prime // (2 * h)
            self.signals = 0
            counters.messages += h  # announce the new slack
            self.msgs += h
            if obs.enabled:
                obs.dt_messages("slack", h)
                obs.dt_slack(self.query.query_id, self.lam, h)
            for node, entry, c in zip(self.nodes, self.entries, counts):
                self._rekey(node, entry, c + self.lam)
                counters.heap_ops += 1
        return None

    def _rekey(self, node: ETNode, entry: HeapEntry, key: int) -> None:
        """Move this query's sigma at ``node`` to ``key``, keeping
        ``mins`` exact."""
        node.heap.update_key(entry, key)
        sync_min(self.mins, node)

    # -- teardown ----------------------------------------------------------

    def _mature(self, counters: WorkCounters) -> None:
        self.detach(counters)

    def detach(self, counters: WorkCounters) -> None:
        """Remove every heap entry (maturity, termination, or rebuild).

        A live tracker's entries are all attached (only this method
        removes them), and each removal re-reads its node's minimum into
        ``mins``.
        """
        mins = self.mins
        cap = COUNTER_MAX
        for node, entry in zip(self.nodes, self.entries):
            heap = node.heap
            heap.remove(entry)
            top = heap.min_key  # sync_min, inlined: TERMINATE's hot loop
            mins[node.idx] = cap if top is None or top > cap else top
        counters.heap_ops += len(self.entries)
        self.entries = []
        self.state = TrackerState.DONE

    # -- introspection ------------------------------------------------------

    def collected_weight(self) -> int:
        """Exact ``W(q)`` relative to the tree epoch (sum of ``c(u)``)."""
        cnts = self.cnts
        return sum(cnts.item(node.idx) for node in self.nodes)

    @property
    def is_live(self) -> bool:
        """True while the tracker still participates in the protocol."""
        return self.state in (TrackerState.ROUND, TrackerState.FINAL)

    def __repr__(self) -> str:
        return (
            f"QueryTracker(q={self.query.query_id!r}, tau={self.tau}, "
            f"h={len(self.nodes)}, state={self.state.value}, lam={self.lam})"
        )
