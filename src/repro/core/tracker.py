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
from typing import List, Optional, Sequence

from ..obs.observer import NULL_OBS
from ..structures.heap import HeapArena
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

    The tracker drives round transitions; its sigma entries (one per
    canonical node) live in the tree's :class:`~repro.structures.heap.HeapArena`
    as the contiguous entry ids ``first .. first + h - 1``, parallel to
    ``cols``.  The arena is passed in to every operation — the tracker
    holds no reference to it, so a discarded tree leaves no reference
    cycle behind.  ``tau`` is the *remaining* threshold relative to the
    tree's epoch: the engine re-bases it whenever the query moves between
    trees (logarithmic method) or the tree is rebuilt (global
    rebuilding), by subtracting the weight already collected.

    Attributes
    ----------
    cols:
        The canonical node set ``U_q`` as counter-store columns
        (last-dimension nodes), filled from the tree build.
    first:
        Entry id of the sigma entry at ``cols[0]``.
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
    cnts:
        The owning tree's counter column (bound by :meth:`start`): the
        tracker reads ``c(u)`` as ``cnts[u]``.
    """

    __slots__ = (
        "query",
        "tau",
        "consumed",
        "cols",
        "first",
        "state",
        "lam",
        "signals",
        "w_run",
        "rounds_run",
        "msgs",
        "cnts",
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
        self.cols: List[int] = []
        self.first = 0
        self.state = TrackerState.INERT
        self.lam = 0
        self.signals = 0
        self.w_run = 0
        self.rounds_run = 0
        self.msgs = 0
        self.cnts = None

    # -- setup -------------------------------------------------------------

    def start(self, cnts, counters: WorkCounters, obs=NULL_OBS):
        """Begin tracking on a freshly built tree (all counters zero).

        Must be called exactly once, after ``cols`` is filled; ``cnts`` is
        that tree's counter column.  Opens the first round (or goes
        straight to the final phase when ``tau <= 6h``) and returns the
        key of the query's sigma entries — with every counter at zero,
        ``1`` in the final phase and ``lambda`` in a round — or None for
        an empty canonical set.  :func:`start_trackers` installs the
        entries and reports the slack announcements to ``obs``.
        """
        if self.cnts is not None:
            raise RuntimeError("tracker already started")
        self.cnts = cnts
        h = len(self.cols)
        if h == 0:
            self.state = TrackerState.INERT
            return None
        counters.heap_ops += h  # one sigma entry per canonical node
        if self.tau <= FINAL_PHASE_FACTOR * h:
            self.state = TrackerState.FINAL
            self.lam = 0
            self.w_run = 0
            if obs.enabled:
                obs.dt_final_phase(self.query.query_id, self.tau)
            return 1
        self.state = TrackerState.ROUND
        self.lam = self.tau // (2 * h)
        self.signals = 0
        # Announcing the slack costs one message per participant.
        counters.messages += h
        self.msgs += h
        if obs.enabled:  # (the caller emits the slack message count)
            obs.dt_slack(self.query.query_id, self.lam, h)
        return self.lam

    # -- signal handling ----------------------------------------------------

    def on_signal(
        self,
        arena: HeapArena,
        entry: int,
        c: int,
        counters: WorkCounters,
        obs=NULL_OBS,
    ) -> Optional[int]:
        """Handle one due signal (``c(u) >= sigma_q(u)``) of ``entry``.

        ``c`` is the node's counter ``c(u)``, which the draining caller
        already holds.  Returns the total collected weight ``W(q)`` when
        the query matures on this signal, else None.  On maturity the
        tracker removes all its entries and transitions to DONE.

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
            delta = c - (arena.key(entry) - 1)
            self.w_run += delta
            arena.rekey(entry, c + 1)
            counters.heap_ops += 1
            if self.w_run >= self.tau:
                self.detach(arena, counters)
                return self.consumed + self.w_run
            return None

        # Normal round: advance cbar by lambda (sigma += lambda); the heap
        # drain loop re-pops the entry if the weighted increment covered
        # several slacks (Section 7's "repeat Line 1").
        self.signals += 1
        arena.rekey(entry, arena.key(entry) + self.lam)
        counters.heap_ops += 1
        if self.signals < len(self.cols):
            return None
        return self._end_round(arena, counters, obs)

    def _end_round(self, arena: HeapArena, counters: WorkCounters, obs=NULL_OBS) -> Optional[int]:
        """Round boundary: collect counters, check maturity, re-slack."""
        h = len(self.cols)
        # Collecting precise counters: one request + one reply per site.
        counters.messages += 2 * h
        self.msgs += 2 * h
        counters.rounds += 1
        self.rounds_run += 1
        cnts = self.cnts
        counts = [cnts.item(u) for u in self.cols]
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
            self.detach(arena, counters)
            return self.consumed + w_now
        tau_prime = self.tau - w_now
        if tau_prime <= FINAL_PHASE_FACTOR * h:
            self.state = TrackerState.FINAL
            self.lam = 0
            self.w_run = w_now
            if obs.enabled:
                obs.dt_final_phase(self.query.query_id, tau_prime)
            step = 1
        else:
            self.lam = step = tau_prime // (2 * h)
            self.signals = 0
            counters.messages += h  # announce the new slack
            self.msgs += h
            if obs.enabled:
                obs.dt_messages("slack", h)
                obs.dt_slack(self.query.query_id, self.lam, h)
        for entry, c in enumerate(counts, self.first):
            arena.rekey(entry, c + step)
        counters.heap_ops += h
        return None

    # -- teardown ----------------------------------------------------------

    def detach(self, arena: HeapArena, counters: WorkCounters) -> None:
        """Remove every sigma entry (maturity, termination, or rebuild).

        A live tracker's entries are all in the arena (only this method
        removes them), and each removal keeps its column's ``mins`` slot
        exact.
        """
        if self.is_live:
            h = len(self.cols)
            arena.remove_run(self.first, h)
            counters.heap_ops += h
        self.state = TrackerState.DONE

    # -- introspection ------------------------------------------------------

    def collected_weight(self) -> int:
        """Exact ``W(q)`` relative to the tree epoch (sum of ``c(u)``)."""
        cnts = self.cnts
        return sum(cnts.item(u) for u in self.cols)

    @property
    def is_live(self) -> bool:
        """True while the tracker still participates in the protocol."""
        return self.state in (TrackerState.ROUND, TrackerState.FINAL)

    def __repr__(self) -> str:
        return (
            f"QueryTracker(q={self.query.query_id!r}, tau={self.tau}, "
            f"h={len(self.cols)}, state={self.state.value}, lam={self.lam})"
        )


def start_trackers(
    trackers: Sequence[QueryTracker],
    cnts,
    mins,
    qptr: Sequence[int],
    qcols,
    counters: WorkCounters,
    obs=NULL_OBS,
    scan: bool = False,
) -> HeapArena:
    """Start every tracker of a freshly built tree and build its arena
    (the Section 4 heaps ``H(u)``).

    ``qcols[qptr[i]:qptr[i + 1]]`` is tracker ``i``'s canonical set (see
    :class:`~repro.core.endpoint_tree.EndpointTree`), and that pair range
    is also its entry-id range: each started tracker owns one sigma entry
    per canonical column, keyed by the key :meth:`QueryTracker.start`
    returns.  ``scan`` builds the no-heap ablation's arena.
    """
    cols = qcols.tolist()
    hs = [hi - lo for lo, hi in zip(qptr, qptr[1:])]
    keys = []
    slack = 0
    in_round = TrackerState.ROUND
    for tracker, lo, h in zip(trackers, qptr, hs):
        tracker.cols = cols[lo : lo + h]
        tracker.first = lo
        key = tracker.start(cnts, counters, obs)
        keys.append(0 if key is None else key)
        if tracker.state is in_round:
            slack += h
    if obs.enabled and slack:
        # Every opening round's slack announcement, counted in one step.
        obs.dt_messages("slack", slack)
    return HeapArena(cols, keys, trackers, hs, mins, scan)
