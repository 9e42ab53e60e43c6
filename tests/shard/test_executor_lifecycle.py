"""Executor lifecycle hardening: idempotent, exception-safe teardown.

Satellite contracts of the supervision PR: ``close()`` must be callable
twice, must offer shutdown to every pool even when one raises, and
``start()`` must not leak worker processes when initialization fails
partway.  A killed worker must surface as a structured
:class:`ShardRPCError` (never a bare ``BrokenProcessPool``), and a
broken pool must not make teardown raise.
"""

import pytest

from repro import Query, StreamElement
from repro.shard import ShardedRTSSystem, ShardRPCError
from repro.shard.executor import ParallelExecutor, _ShardState, make_executor

QUERIES = [
    Query([(0, 50)], 5, query_id="a"),
    Query([(25, 100)], 8, query_id="b"),
]


class _StubPool:
    """Records shutdown calls; optionally raises on the first one."""

    def __init__(self, fail=False):
        self.fail = fail
        self.shutdowns = 0

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns += 1
        if self.fail and self.shutdowns == 1:
            raise RuntimeError("pool teardown exploded")


#: Both process-executor presets share the lifecycle code under test.
PRESETS = ["parallel", "supervised"]


def _pools(executor):
    return [st.pool for st in executor._states if st.pool is not None]


@pytest.mark.parametrize("preset", PRESETS)
def test_close_is_idempotent(preset):
    executor = make_executor(preset)
    executor.start([{"dims": 1, "engine": "dt"}])
    executor.close()
    executor.close()  # second close: detached pools, no-op
    assert _pools(executor) == []


@pytest.mark.parametrize("preset", PRESETS)
def test_close_offers_shutdown_to_every_pool(preset):
    executor = make_executor(preset)
    failing, healthy = _StubPool(fail=True), _StubPool()
    executor._states = [_ShardState({}), _ShardState({})]
    executor._states[0].pool, executor._states[1].pool = failing, healthy
    with pytest.raises(RuntimeError, match="teardown exploded"):
        executor.close()
    # The failing pool did not abort the rest, and the pools are
    # detached: a retry cannot double-shutdown.
    assert healthy.shutdowns == 1
    assert _pools(executor) == []
    executor.close()
    assert failing.shutdowns == 1


@pytest.mark.parametrize("preset", PRESETS)
def test_start_cleans_up_partial_initialization(preset, monkeypatch):
    import concurrent.futures

    created = []

    def flaky_pool(*args, **kwargs):
        if created:
            raise OSError("no more processes")
        pool = _StubPool()
        created.append(pool)
        return pool

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", flaky_pool)
    executor = make_executor(preset)
    with pytest.raises(OSError, match="no more processes"):
        executor.start([{"dims": 1, "engine": "dt"}] * 2)
    assert created[0].shutdowns == 1
    assert _pools(executor) == []


def test_sharded_system_exit_closes_executor_on_error():
    executor = ParallelExecutor()
    with pytest.raises(RuntimeError, match="body failed"):
        with ShardedRTSSystem(shards=2, executor=executor) as system:
            system.register_batch(QUERIES)
            raise RuntimeError("body failed")
    assert _pools(executor) == []


def _kill_workers(pool):
    for proc in list(pool._processes.values()):
        proc.kill()


@pytest.mark.parametrize("mp_context", ["fork", "spawn"])
def test_killed_worker_surfaces_structured_error(mp_context):
    executor = ParallelExecutor(mp_context=mp_context)
    with ShardedRTSSystem(shards=2, executor=executor) as system:
        system.register_batch(QUERIES)
        system.process_batch([StreamElement(30, 1)])
        _kill_workers(executor._states[0].pool)
        with pytest.raises(ShardRPCError) as excinfo:
            system.process_batch([StreamElement(40, 1)])
        assert excinfo.value.shard == 0
        assert excinfo.value.op == "process"
    # close() after the broken pool must not raise (covered by __exit__).
    assert _pools(executor) == []


def test_close_after_broken_pool_with_observability():
    from repro.obs.observer import Observability

    executor = ParallelExecutor()
    system = ShardedRTSSystem(
        shards=2, executor=executor, observability=Observability()
    )
    system.register_batch(QUERIES)
    system.process_batch([StreamElement(30, 1)])
    for pool in _pools(executor):
        _kill_workers(pool)
    # Teardown drains telemetry from dead workers; the structured RPC
    # failure is absorbed, not raised.
    system.close()
    assert _pools(executor) == []


def test_register_failure_carries_shard_attribution():
    executor = ParallelExecutor()
    with ShardedRTSSystem(shards=2, executor=executor) as system:
        system.register_batch(QUERIES)  # spawns both workers
        _kill_workers(executor._states[1].pool)
        with pytest.raises(ShardRPCError) as excinfo:
            system.register_batch(
                [
                    Query([(0, 10)], 4, query_id="c"),  # seq 2 -> shard 0
                    Query([(0, 10)], 4, query_id="d"),  # seq 3 -> shard 1
                ]
            )
        assert excinfo.value.shard == 1
        assert excinfo.value.op == "register"


def test_restarts_off_keeps_no_replay_state():
    """With ``max_restarts=0`` nothing a restart would read is kept."""
    from repro.sanitize import collect

    with ShardedRTSSystem(
        shards=2, executor="parallel", executor_options={"snapshot_every": 16}
    ) as system:
        system.register_batch(QUERIES)
        for i in range(40):
            system.process_batch(
                [StreamElement(7 * i % 100, 1), StreamElement((7 * i + 50) % 100, 1)]
            )
        executor = system.executor
        assert executor.supervision()["journal_depth"] == [0, 0]
        assert all(
            not st.emitted and st.base_snapshot is None for st in executor._states
        )
        assert collect(system, "full") == []
        # The shard bookkeeping checks cover "parallel" too: a miscounted
        # journal and a quarantined shard holding a pool are both caught.
        executor._states[0].since_snapshot = 1
        executor._states[1].quarantined = True
        assert sorted(v.invariant for v in collect(system, "full")) == [
            "shard-journal-consistency",
            "shard-quarantine-accounting",
        ]
        executor._states[0].since_snapshot = 0
        executor._states[1].quarantined = False
