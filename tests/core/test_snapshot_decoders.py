"""Malformed snapshots: both decoders raise ValueError naming the field.

``RTSSystem.restore`` (and ``DurableSystem.recover`` through it) reads
``rts-snapshot-v1`` payloads; ``ShardedRTSSystem.restore`` reads
``rts-shard-snapshot-v1`` ones, which carry one ``rts-snapshot-v1``
payload per shard.  Checkpoints come back from disk, so a decoder may
see anything.  The fuzz tests corrupt one spot of a valid snapshot —
drop a field or give it a value of the wrong type or range — and expect
a ValueError that names the field, raised before anything is built: the
observability sink passed in is left untouched.
"""

import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DurableSystem, Observability, RTSSystem, StreamElement
from repro.obs.aggregate import registry_snapshot
from repro.shard.system import ShardedRTSSystem

DROP = object()


def _system_snapshot() -> dict:
    """A valid 1-D snapshot with alive, matured and terminated queries."""
    system = RTSSystem(dims=1, engine="dt")
    system.register([(0, 10)], threshold=3, query_id="m")
    system.register([(0, 10)], threshold=50, query_id="a")
    system.register([(5, 20)], threshold=9, query_id="t")
    system.process_batch([StreamElement(5.0, 2)] * 2)
    system.terminate("t")
    return system.snapshot()


def _shard_snapshot() -> dict:
    """A valid two-shard snapshot; each shard holds alive and done queries."""
    with ShardedRTSSystem(
        shards=2,
        executor="serial",
        policy="spatial-grid",
        policy_options={"domain": (0, 100)},
    ) as system:
        for lo, tag in ((0, "l"), (60, "r")):
            system.register([(lo, lo + 40)], threshold=3, query_id=f"{tag}m")
            system.register([(lo, lo + 40)], threshold=50, query_id=f"{tag}a")
            system.register([(lo, lo + 40)], threshold=9, query_id=f"{tag}t")
        system.process_batch([StreamElement(5.0, 2), StreamElement(65.0, 2)] * 2)
        system.terminate("lt")
        system.terminate("rt")
        return system.snapshot()


BASE = _system_snapshot()
SHARD_BASE = _shard_snapshot()


def _name(path) -> str:
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else (f".{part}" if out else part)
    return out


def _apply(payload, path, value):
    """``payload`` with the field at ``path`` dropped or set to ``value``."""
    if not path:
        return value
    parent = payload
    for part in path[:-1]:
        parent = parent[part]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return payload


# -- corruptions of an rts-snapshot-v1 payload --------------------------------
# ``(path, value, named)``: ``named`` is the field the error must name (None:
# only the format is named).  Errors inside a rectangle name the rectangle.

WHOLE = [((), value, None) for value in ([], None, "rts-snapshot-v1", 7)] + [
    (("format",), DROP, None),
    (("format",), "rts-snapshot-v0", None),
]


def _fields(path, values):
    return [(path, value, _name(path)) for value in values]


TOP = (
    _fields(("dims",), [DROP, 0, -1, "1", True, 1.0, None, [1]])
    + _fields(("engine",), [DROP, "nope", 3, None])
    + _fields(("engine_options",), [[], None, "x", {"bogus": 1}, {"sanitize": True}])
    + _fields(("clock",), [DROP, -1, "4", None, 2.5, True])
    + _fields(("alive",), [DROP, None, {}, "x", 3])
    + _fields(("done",), [DROP, None, {}, "x"])
)

RECORDS = [
    corruption
    for where in (("alive", 0), ("done", 0))
    for corruption in _fields(where, [None, "x", [], 3])
    + _fields(where + ("query",), [DROP, None, [], "x"])
]

ALIVE = _fields(("alive", 0, "consumed"), [DROP, "3", -1, None, True, 1.5, 50, 51])

DONE = _fields(("done", 0, "status"), [DROP, "alive", "x", None, 3]) + _fields(
    ("done", 0, "matured_at"), ["3", 0, -1, 1.5, []]
)


def _query(where):
    q = where + ("query",)
    rect = q + ("rect",)
    named = _name(rect)
    return (
        _fields(q + ("id",), [DROP, [], {"a": 1}])
        + _fields(q + ("threshold",), [DROP, 0, -3, "5", None, True, 2.5])
        + _fields(rect, [DROP, None, "x", {}, [], [{}, {}]])
        + [(rect + (0,), value, named) for value in ("x", None, {}, [])]
        + [
            (rect + (0, side), value, named)
            for side in ("lo", "hi")
            for value in (DROP, None, [1], ["x", 0], [1.0, 2], [math.nan, 0], "ab")
        ]
    )


QUERIES = _query(("alive", 0)) + _query(("done", 0))

CORRUPTIONS = WHOLE + TOP + RECORDS + ALIVE + DONE + QUERIES


def _repeat_an_id(payload):
    payload["done"][0]["query"]["id"] = payload["alive"][0]["query"]["id"]
    return payload


@st.composite
def malformed(draw):
    """``(payload, named)`` for the rts-snapshot-v1 decoder."""
    path, value, named = draw(st.sampled_from(CORRUPTIONS))
    return _apply(copy.deepcopy(BASE), path, value), named


def _untouched(obs, before):
    return registry_snapshot(obs.metrics) == before and obs.trace.total_appended == 0


@settings(max_examples=300, deadline=None)
@given(malformed())
# Payloads the decoder once failed on with raw KeyError or TypeError, and
# one it once took (a query both alive and done).
@example((_apply(copy.deepcopy(BASE), ("dims",), DROP), "dims"))
@example((_apply(copy.deepcopy(BASE), ("clock",), DROP), "clock"))
@example((_apply(copy.deepcopy(BASE), ("alive",), None), "alive"))
@example((_apply(copy.deepcopy(BASE), ("done",), DROP), "done"))
@example((_apply(copy.deepcopy(BASE), ("engine_options",), []), "engine_options"))
@example((_repeat_an_id(copy.deepcopy(BASE)), "done[0].query.id"))
def test_malformed_snapshot_raises_before_building(case):
    payload, named = case
    obs = Observability()
    before = registry_snapshot(obs.metrics)
    with pytest.raises(ValueError) as info:
        RTSSystem.restore(payload, observability=obs)
    message = str(info.value)
    assert "rts-snapshot-v1" in message if named is None else repr(named) in message
    assert _untouched(obs, before)


def test_the_base_snapshots_are_valid():
    restored = RTSSystem.restore(copy.deepcopy(BASE))
    assert restored.now == 2 and restored.progress("a")[0] == 4
    with ShardedRTSSystem.restore(copy.deepcopy(SHARD_BASE)) as sharded:
        assert sharded.now == 4 and sharded.progress("ra")[0] == 4


def test_recover_rejects_a_malformed_snapshot():
    with pytest.raises(ValueError, match="'alive\\[0\\].consumed'"):
        DurableSystem.recover(_apply(copy.deepcopy(BASE), ("alive", 0, "consumed"), "3"))


# -- corruptions of an rts-shard-snapshot-v1 payload -----------------------------

SHARD_WHOLE = [((), value, None) for value in ([], None, 7)] + [
    (("format",), DROP, None),
    (("format",), "rts-snapshot-v1", None),
]

SHARD_TOP = (
    _fields(("shards",), [DROP, 0, "2", None, True])
    + _fields(("dims",), [DROP, 0, "1", None])
    + _fields(("engine",), [DROP, 3, None])
    + _fields(("engine_options",), [[], None])
    + _fields(("executor",), [3, None, []])
    + _fields(("clock",), [DROP, -1, "x"])
    + _fields(("next_seq",), [DROP, -1, None])
    + _fields(("policy",), [DROP, None, "x", {}, {"policy": "nope"}, {"policy": "spatial-grid"}])
    + _fields(("elements_routed",), [None, "x", [1], [1, 2, 3], [-1, 0], ["1", 0], [True, 0]])
    + _fields(("alive",), [DROP, None, {}, "x"])
    + _fields(("alive", 0), [None, "x"])
    + _fields(("alive", 0, "id"), [DROP, [], {}])
    + _fields(("alive", 0, "owner"), [DROP, -1, 2, "0", None])
    + _fields(("alive", 0, "seq"), [DROP, -1, "0", None])
    + _fields(("shard_blobs",), [DROP, None, {}, [], "x"])
)

#: Inconsistent but well-typed: the named shard blob is at fault.
SHARD_MISMATCH = [
    (("engine",), "dt-scan", "shard_blobs[0]"),
    (("engine_options",), {"scan": True}, "shard_blobs[0]"),
    (("alive", 0, "id"), "ghost", "shard_blobs[0]"),
]


def _in_blob(k, corruption):
    path, value, named = corruption
    where = ("shard_blobs", k)
    return where + path, value, _name(where) + ("." + named if named else "")


SHARD_CORRUPTIONS = (
    SHARD_WHOLE
    + SHARD_TOP
    + SHARD_MISMATCH
    + [_in_blob(k, c) for k in (0, 1) for c in WHOLE[:4] + TOP + RECORDS + ALIVE + DONE + QUERIES]
)


@st.composite
def malformed_shard(draw):
    """``(payload, named)`` for the rts-shard-snapshot-v1 decoder."""
    path, value, named = draw(st.sampled_from(SHARD_CORRUPTIONS))
    return _apply(copy.deepcopy(SHARD_BASE), path, value), named


@settings(max_examples=300, deadline=None)
@given(malformed_shard())
# Payloads the decoder once failed on with raw KeyError or TypeError.
@example((_apply(copy.deepcopy(SHARD_BASE), ("dims",), DROP), "dims"))
@example((_apply(copy.deepcopy(SHARD_BASE), ("alive", 0, "seq"), DROP), "alive[0].seq"))
@example((_apply(copy.deepcopy(SHARD_BASE), ("shard_blobs", 1, "clock"), DROP), "shard_blobs[1].clock"))
def test_malformed_shard_snapshot_raises_before_building(case):
    payload, named = case
    obs = Observability()
    before = registry_snapshot(obs.metrics)
    with pytest.raises(ValueError) as info:
        ShardedRTSSystem.restore(payload, observability=obs)
    message = str(info.value)
    assert "rts-shard-snapshot-v1" in message if named is None else repr(named) in message
    assert _untouched(obs, before)
