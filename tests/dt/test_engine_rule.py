"""The simulator and the engine run one round rule.

A 1-D :class:`~repro.RTSSystem` tracks each query as a DT instance whose
participants are the query's canonical endpoint-tree nodes.  Replaying
the same weighted increments through :func:`~repro.dt.protocol.run_tracking`
must reach the same decisions with the same message count, so the
simulator's O(h log tau) bound holds for the code the engine runs.
"""

import random

import pytest

from repro import Query, RTSSystem
from repro.dt.messages import MessageType
from repro.dt.protocol import run_tracking
from repro.sanitize import max_dt_messages, max_dt_rounds

#: Never reached: these queries only shape the endpoint tree.
NEVER = 10**12


def _interval(rng):
    lo = rng.uniform(0.0, 90.0)
    return lo, lo + rng.uniform(1.0, 100.0 - lo)


def _replay_against_simulator(engine, seed):
    rng = random.Random(seed)
    queries = [
        Query([_interval(rng)], NEVER, query_id=f"bg{k}")
        for k in range(rng.randint(0, 24))
    ]
    lo, hi = _interval(rng)
    tau = rng.randint(1, rng.choice([40, 4000]))
    queries.append(Query([(lo, hi)], tau, query_id="q"))
    system = RTSSystem(dims=1, engine=engine)
    if rng.random() < 0.5:
        system.register_batch(queries)  # one tree holds them all
    else:
        for query in queries:  # the logarithmic method's slots
            system.register(query)
    eng = system.engine
    inst = eng._trees[eng._locator["q"]]
    slot = inst.slot["q"]
    cols = inst.qcols[inst.qptr[slot] : inst.qptr[slot + 1]].tolist()
    h = len(cols)
    site_of = {col: site for site, col in enumerate(cols)}

    increments = []
    events = []
    while not events:
        v = rng.uniform(lo, hi)
        heavy = rng.random() < 0.2  # may cover several slacks at once
        w = rng.randint(1, tau // 3 + 1) if heavy else rng.randint(1, 4)
        # R_q's canonical nodes partition it: v's path meets exactly one.
        path = inst.tree.columns((v,)).tolist()
        (site,) = [site_of[c] for c in path if c in site_of]
        increments.append((site, w))
        events = system.process(v, w)

    sim = run_tracking(h, tau, increments)
    # The engine's round rule sends no ROUND_END / FINAL_PHASE broadcasts.
    broadcasts = (
        sim.per_type[MessageType.ROUND_END] + sim.per_type[MessageType.FINAL_PHASE]
    )
    assert [e.query.query_id for e in events] == ["q"]
    assert sim.matured_at_step == len(increments)
    assert sim.total_collected == events[0].weight_seen
    assert sim.rounds == inst.rounds[slot]
    assert inst.msgs[slot] == sim.messages - broadcasts
    assert inst.msgs[slot] <= max_dt_messages(h, tau)
    assert inst.rounds[slot] <= max_dt_rounds(tau)
    return h, inst.rounds[slot]


@pytest.mark.parametrize("engine", ["dt", "dt-static", "dt-scan"])
def test_simulator_replays_the_engine_round_rule(engine):
    shapes = [_replay_against_simulator(engine, seed) for seed in range(60)]
    hs = {h for h, _rounds in shapes}
    rounds = {r for _h, r in shapes}
    # The seeds cover several canonical-set sizes, the final phase alone
    # and multi-round instances.
    assert len(hs) >= 5 and 0 in rounds and max(rounds) >= 4
