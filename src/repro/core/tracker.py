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

The coordinators of all queries on one endpoint tree are one
:class:`TrackerColumns`: a list per field, indexed by the query's *slot*
(its position in the tree's registration order), so a tree build starts
every query in a few list passes and a merge re-bases them in one step
per tree.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.observer import NULL_OBS
from ..structures.heap import HeapArena
from .engine import EngineError, WorkCounters
from .query import Query

#: The constant of the DT protocol: the "straightforward" final phase is
#: entered once the remaining threshold drops to ``6h`` or below.
FINAL_PHASE_FACTOR = 6

#: A slot's lifecycle within one endpoint tree: a normal round with
#: positive slack, the final phase (``tau' <= 6h``), inert (an empty
#: canonical set: the query can never mature), or done (matured or
#: terminated; detached from all heaps).  ROUND and FINAL are the live
#: states.
ROUND, FINAL, INERT, DONE = range(4)
STATE_NAMES = ("round", "final", "inert", "done")


class TrackerColumns:
    """DT coordinator state of every query on one endpoint tree.

    Slot ``s`` is the ``s``-th of the ``(query, tau, consumed)`` entries
    the tree was built with.  ``tau[s]`` is the *remaining* threshold
    relative to the tree's epoch: the engine re-bases it whenever the
    query moves between trees (logarithmic method) or the tree is
    rebuilt (global rebuilding), by subtracting the weight already
    collected, which it adds to ``consumed[s]`` so maturity reports the
    lifetime total ``W(q)``.

    The slot's canonical node set ``U_q`` is the counter-store columns
    ``qcols[qptr[s]:qptr[s + 1]]`` (see
    :class:`~repro.core.endpoint_tree.EndpointTree`), and that range is
    also its sigma entries' ids in the :class:`HeapArena` :meth:`start`
    builds; each entry's payload is its slot.  Per slot:

    ``state``
        one of ROUND, FINAL, INERT, DONE;
    ``lam``
        the current slack ``lambda_q`` (0 outside a normal round);
    ``signals``
        signals received in the current round;
    ``w_run``
        final phase only: the coordinator's running total of ``sum c(u)``;
    ``msgs`` / ``rounds``
        simulated DT messages and completed rounds of this query alone
        (the per-instance view of ``WorkCounters.messages`` / ``rounds``),
        letting the sanitizer check the O(h log tau) bounds of Section 3.2
        per query.

    ``slot`` maps a query id to its slot.
    """

    __slots__ = (
        "query",
        "tau",
        "consumed",
        "lam",
        "signals",
        "w_run",
        "state",
        "msgs",
        "rounds",
        "slot",
        "qptr",
        "qcols",
        "cnts",
        "arena",
        "_counters",
        "_obs",
    )

    def __init__(self, entries: Sequence[Tuple[Query, int, int]]):
        if entries:
            query, tau, consumed = map(list, zip(*entries))
        else:
            query, tau, consumed = [], [], []
        if tau and min(tau) < 1:
            raise ValueError(f"remaining threshold must be >= 1, got {min(tau)}")
        if consumed and min(consumed) < 0:
            raise ValueError(f"consumed weight must be >= 0, got {min(consumed)}")
        self.query: List[Query] = query
        self.tau: List[int] = tau
        self.consumed: List[int] = consumed
        self.slot: Dict[object, int] = {q.query_id: s for s, q in enumerate(query)}
        if len(self.slot) != len(query):
            # The map keeps a repeated id's last slot, so its first one differs.
            dup = next(q.query_id for s, q in enumerate(query) if self.slot[q.query_id] != s)
            raise EngineError(f"duplicate query id {dup!r}")
        self.arena: Optional[HeapArena] = None

    def start(
        self,
        qptr: List[int],
        qcols,
        cnts,
        mins,
        counters: WorkCounters,
        obs=NULL_OBS,
        scan: bool = False,
    ) -> None:
        """Begin tracking on a freshly built tree (all counters zero).

        Slot ``s``'s canonical set is ``qcols[qptr[s]:qptr[s + 1]]`` and
        ``cnts`` / ``mins`` are the tree's counter store.  Opens every
        slot's first round — or its final phase when ``tau <= 6h`` — and
        builds the arena (the Section 4 heaps ``H(u)``): one sigma entry
        per canonical column, keyed, with every counter at zero, by the
        slack ``lambda`` in a round and ``1`` in the final phase.
        ``scan`` builds the no-heap ablation's arena.
        """
        if self.arena is not None:
            raise RuntimeError("trackers already started")
        self.qptr = qptr
        self.qcols = qcols
        self.cnts = cnts
        self._counters = counters
        self._obs = obs
        hs = list(map(sub, qptr[1:], qptr))
        # One pass: a normal round opens iff tau > 6h, with slack
        # lambda = tau // 2h >= 3 as its key, and announcing it costs one
        # message per participant; else the final phase's key is 1.
        self.lam = lam = []
        self.state = state = []
        self.msgs = msgs = []
        keys = []
        factor = FINAL_PHASE_FACTOR
        for t, h in zip(self.tau, hs):
            if h and t > factor * h:
                k = t // (2 * h)
                lam.append(k)
                state.append(ROUND)
                msgs.append(h)
                keys.append(k)
            else:
                lam.append(0)
                state.append(FINAL if h else INERT)
                msgs.append(0)
                keys.append(1)
        m = len(hs)
        self.signals = [0] * m
        self.w_run = [0] * m
        self.rounds = [0] * m
        slack = sum(msgs)
        counters.heap_ops += qptr[-1]  # one sigma entry per canonical node
        counters.messages += slack
        if obs.enabled:
            opened = []
            for q, t, k, st in zip(self.query, self.tau, lam, state):
                if k:
                    opened.append(q.query_id)
                elif st == FINAL:
                    obs.dt_final_phase(q.query_id, t)
            if opened:
                obs.dt_slack_opened(opened, slack)
        self.arena = HeapArena(qcols, keys, range(m), hs, mins, scan)

    # -- the round rule -----------------------------------------------------

    def signal(self, slot: int, entry: int, c: int) -> Optional[int]:
        """Handle one due signal (``c(u) >= sigma_q(u)``) of ``entry``,
        one of slot ``slot``'s sigma entries.

        ``c`` is the node's counter ``c(u)``, which the draining caller
        already holds.  Returns the total collected weight ``W(q)`` when
        the query matures on this signal, else None.  On maturity the
        slot's entries are removed and it is DONE.

        In a normal round the signal advances ``sigma`` by ``lambda``;
        the ``h``-th signal ends the round: the coordinator collects the
        precise counters, checks maturity and opens the next round with
        ``lambda' = tau' // 2h`` or, at ``tau' <= 6h``, the final phase.
        Every key this writes is above its node's counter — at a round
        end ``c(u) + lambda'`` or ``c(u) + 1`` at every node — except
        ``sigma + lambda`` at this node, which the caller's drain re-pops
        while it is still due (Section 7's "repeat Line 1").  So no
        signal is left due anywhere.
        """
        counters = self._counters
        obs = self._obs
        arena = self.arena
        counters.messages += 1  # the participant's one-bit signal
        self.msgs[slot] += 1
        if obs.enabled:
            obs.inc("rts_dt_messages_total", type="signal")
        if self.state[slot] == FINAL:
            # Weighted delta forwarding: sigma was cbar + 1.
            w_run = self.w_run[slot] + c - (arena.key(entry) - 1)
            self.w_run[slot] = w_run
            arena.rekey(entry, c + 1)
            counters.heap_ops += 1
            if w_run >= self.tau[slot]:
                self.detach(slot)
                return self.consumed[slot] + w_run
            return None

        signals = self.signals[slot] + 1
        self.signals[slot] = signals
        arena.rekey(entry, arena.key(entry) + self.lam[slot])
        counters.heap_ops += 1
        lo = self.qptr[slot]
        hi = self.qptr[slot + 1]
        h = hi - lo
        if signals < h:
            return None

        # Round end.  Collecting the precise counters: one request and one
        # reply per site.
        counters.messages += 2 * h
        self.msgs[slot] += 2 * h
        counters.rounds += 1
        rounds = self.rounds[slot] = self.rounds[slot] + 1
        counts = self.cnts[self.qcols[lo:hi]].tolist()
        w_now = sum(counts)
        tau = self.tau[slot]
        if obs.enabled:
            obs.inc("rts_dt_messages_total", h, type="collect")
            obs.inc("rts_dt_messages_total", h, type="report")
            obs.dt_round_end(
                self.query[slot].query_id,
                rounds,
                collected=w_now,
                remaining=max(tau - w_now, 0),
            )
        if w_now >= tau:
            self.detach(slot)
            return self.consumed[slot] + w_now
        tau_prime = tau - w_now
        if tau_prime <= FINAL_PHASE_FACTOR * h:
            self.state[slot] = FINAL
            self.lam[slot] = 0
            self.w_run[slot] = w_now
            if obs.enabled:
                obs.dt_final_phase(self.query[slot].query_id, tau_prime)
            step = 1
        else:
            self.lam[slot] = step = tau_prime // (2 * h)
            self.signals[slot] = 0
            counters.messages += h  # announce the new slack
            self.msgs[slot] += h
            if obs.enabled:
                obs.inc("rts_dt_messages_total", h, type="slack")
                obs.dt_slack(self.query[slot].query_id, step, h)
        rekey = arena.rekey
        for entry, c in enumerate(counts, lo):
            rekey(entry, c + step)
        counters.heap_ops += h
        return None

    # -- teardown ----------------------------------------------------------

    def detach(self, slot: int) -> None:
        """Remove every sigma entry of ``slot`` (maturity, termination) and
        mark it DONE.  A live slot's entries are all in the arena (only
        this method removes them), and each removal keeps its column's
        ``mins`` slot exact."""
        if self.state[slot] <= FINAL:
            lo = self.qptr[slot]
            h = self.qptr[slot + 1] - lo
            self.arena.remove_run(lo, h)
            self._counters.heap_ops += h
        self.state[slot] = DONE

    # -- introspection ------------------------------------------------------

    def collected(self, slot: int) -> int:
        """Exact ``W(q)`` of ``slot`` relative to the tree epoch (the sum
        of its canonical counters)."""
        qptr = self.qptr
        return sum(self.cnts[self.qcols[qptr[slot] : qptr[slot + 1]]].tolist())

    def alive_entries(self) -> List[Tuple[Query, int, int]]:
        """``(query, remaining threshold, consumed)`` of every slot not
        DONE, in slot order, with each query's collected weight ``W(q)``
        subtracted from its threshold and added to its offset — Section
        4's threshold adjustment when a tree is rebuilt or merged.

        Every slot's weight comes from one gather of the canonical
        counters and one running sum (exact Python ints; an inert slot's
        empty range sums to zero)."""
        acc = list(accumulate(self.cnts[self.qcols].tolist(), initial=0))
        qptr = self.qptr
        out: List[Tuple[Query, int, int]] = []
        for s, state in enumerate(self.state):
            if state == DONE:
                continue
            w = acc[qptr[s + 1]] - acc[qptr[s]]
            remaining = self.tau[s] - w
            if remaining < 1:
                raise AssertionError(
                    f"query {self.query[s].query_id!r} should have matured: "
                    f"remaining threshold {remaining}"
                )
            out.append((self.query[s], remaining, self.consumed[s] + w))
        return out
