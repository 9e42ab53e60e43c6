"""The telemetry's message and round accounts agree with the engine's.

The DT engines count their protocol messages (Section 3.2's cost
measure) twice: in :class:`~repro.core.engine.WorkCounters` and, when a
sink is attached, in ``rts_dt_messages_total{type=...}``.  Seeded
replays mixing scalar and batched ingestion with registrations and
terminations must leave both accounts equal, and the element counter
equal to the system clock.
"""

import random

import pytest

from repro import Observability, Query, RTSSystem, StreamElement

CASES = [
    (engine, dims, seed)
    for engine in ("dt", "dt-static", "dt-scan")
    for dims in (1, 2)
    for seed in (0, 1)
]


def _replay(engine, dims, seed):
    rng = random.Random(seed * 100 + dims)

    def rect():
        out = []
        for _ in range(dims):
            lo = rng.uniform(0, 90)
            out.append((lo, lo + rng.uniform(5, 50)))
        return out

    def point():
        if dims == 1:
            return rng.uniform(0, 100)
        return tuple(rng.uniform(0, 100) for _ in range(dims))

    def element():
        return StreamElement(point(), rng.choice((1, 1, 2, 7)))

    obs = Observability()
    system = RTSSystem(dims=dims, engine=engine, observability=obs)
    next_id = 0
    for _ in range(30):
        op = rng.random()
        if op < 0.25:
            for _ in range(rng.randint(1, 4)):
                system.register(
                    Query(rect(), rng.randint(20, 2000), query_id=next_id)
                )
                next_id += 1
        elif op < 0.35 and next_id:
            system.terminate(rng.randrange(next_id))
        elif op < 0.6:
            for _ in range(rng.randint(1, 20)):
                system.process(element())
        else:
            system.process_batch([element() for _ in range(rng.randint(1, 200))])
    return obs, system


@pytest.mark.parametrize("engine, dims, seed", CASES)
def test_message_round_and_element_accounts_agree(engine, dims, seed):
    obs, system = _replay(engine, dims, seed)
    work = system.work_counters
    metrics = obs.metrics
    assert work.messages > 0 and work.rounds > 0
    assert metrics.family_total("rts_dt_messages_total") == work.messages
    assert metrics.value("rts_dt_rounds_total") == work.rounds
    assert metrics.value("rts_elements_total") == system.now
