"""JSON serialization of the core model objects.

Workload scripts — and the queries/elements inside them — are the unit of
reproducibility in this project: a saved script replays bit-identically
against any engine on any machine.  This module provides lossless
conversions to plain JSON-compatible objects, including the symbolic
boundary bits (open/closed endpoint semantics) and the infinities used by
unbounded ranges.
"""

from __future__ import annotations

import inspect
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..streams.element import StreamElement
from .geometry import BoundaryKey, Interval, Rect
from .query import Query, QueryStatus

#: Format tag of :func:`system_to_obj` payloads.
SNAPSHOT_FORMAT = "rts-snapshot-v1"


def _value_to_obj(v: float) -> Any:
    """JSON has no infinities; encode them as strings.

    NaN is rejected outright: it is not a point in the data space, it
    breaks the endpoint-tree total order, and ``json`` would otherwise
    emit a non-standard literal that silently poisons round-trips.
    """
    if v != v:
        raise ValueError("NaN is not serializable (and not a valid coordinate)")
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return v


def _value_from_obj(obj: Any) -> float:
    if obj == "inf":
        return math.inf
    if obj == "-inf":
        return -math.inf
    value = float(obj)
    if value != value:
        raise ValueError(f"NaN is not a valid coordinate (got {obj!r})")
    return value


def boundary_to_obj(key: BoundaryKey) -> List[Any]:
    """``(value, bit)`` as a JSON pair.

    The bit preserves the exact open/closed endpoint semantics that the
    Section 4 endpoint-tree ordering depends on.
    """
    return [_value_to_obj(key[0]), key[1]]


def boundary_from_obj(obj: Sequence[Any]) -> BoundaryKey:
    """Inverse of :func:`boundary_to_obj` (Section 4 boundary keys)."""
    value, bit = obj
    if bit not in (0, 1):
        raise ValueError(f"boundary bit must be 0 or 1, got {bit!r}")
    return (_value_from_obj(value), int(bit))


def interval_to_obj(interval: Interval) -> Dict[str, Any]:
    """One side of a Section 2 query rectangle as a JSON object."""
    return {"lo": boundary_to_obj(interval.lo), "hi": boundary_to_obj(interval.hi)}


def interval_from_obj(obj: Dict[str, Any]) -> Interval:
    """Inverse of :func:`interval_to_obj` (Section 2 ranges)."""
    return Interval(boundary_from_obj(obj["lo"]), boundary_from_obj(obj["hi"]))


def rect_to_obj(rect: Rect) -> List[Dict[str, Any]]:
    """A Section 2 query rectangle ``R_q`` as a JSON array of intervals."""
    return [interval_to_obj(iv) for iv in rect.intervals]


def rect_from_obj(obj: Sequence[Dict[str, Any]]) -> Rect:
    """Inverse of :func:`rect_to_obj` (Section 2 rectangles)."""
    return Rect([interval_from_obj(o) for o in obj])


def query_to_obj(query: Query) -> Dict[str, Any]:
    """A Section 2 RTS query ``(R_q, tau_q)`` as a JSON object.

    Query ids must themselves be JSON-compatible to round-trip.
    """
    return {
        "id": query.query_id,
        "rect": rect_to_obj(query.rect),
        "threshold": query.threshold,
    }


def query_from_obj(obj: Dict[str, Any]) -> Query:
    """Inverse of :func:`query_to_obj` (Section 2 queries)."""
    return Query(
        rect_from_obj(obj["rect"]),
        int(obj["threshold"]),
        query_id=obj["id"],
    )


def element_to_obj(element: StreamElement) -> Dict[str, Any]:
    """A Section 2 weighted stream element as a JSON object."""
    return {"v": [_value_to_obj(v) for v in element.value], "w": element.weight}


def element_from_obj(obj: Dict[str, Any]) -> StreamElement:
    """Inverse of :func:`element_to_obj` (Section 2 elements)."""
    return StreamElement(
        tuple(_value_from_obj(v) for v in obj["v"]), int(obj["w"])
    )


# -- system checkpoints (``rts-snapshot-v1``) -------------------------------


def system_to_obj(system) -> Dict[str, Any]:
    """An :class:`~repro.core.system.RTSSystem` checkpoint as JSON.

    The snapshot is *logical*: for each alive query it records the exact
    collected weight ``W(q)`` — which every engine answers exactly — plus
    the lifecycle bookkeeping of finished queries and the stream clock.
    Restoring it (:func:`system_from_obj`) re-bases thresholds by the
    consumed weight — the Section 4 rebuilding step — which reproduces
    every future maturity event bit-identically without freezing any
    engine-internal structure (see ``docs/ROBUSTNESS.md`` for why that
    is exact).

    Requires the engine to have been named via the registry (the default);
    a hand-constructed engine instance has no serializable spec.

    A checkpoint may land right after a batched descent: the DT engines
    keep each counter in exactly one place (the tree's int64 counter
    store, which bulk ranges and scalar elements both update in place),
    so ``collected_weight`` reads the canonical W(q) directly and the
    round-trip is byte-identical either way.
    """
    spec = getattr(system, "engine_spec", None)
    if spec is None:
        raise ValueError(
            "cannot snapshot a system built from an engine instance; "
            "construct it with RTSSystem(engine='<name>') to checkpoint"
        )
    name, options = spec
    alive: List[Dict[str, Any]] = []
    done: List[Dict[str, Any]] = []
    for query_id, status in system._status.items():
        query = system._queries[query_id]
        if status is QueryStatus.ALIVE:
            alive.append(
                {
                    "query": query_to_obj(query),
                    "consumed": system.engine.collected_weight(query_id),
                }
            )
        else:
            done.append(
                {
                    "query": query_to_obj(query),
                    "status": status.value,
                    "matured_at": system._maturity_times.get(query_id),
                }
            )
    return {
        "format": SNAPSHOT_FORMAT,
        "dims": system.dims,
        "engine": name,
        "engine_options": dict(options),
        "clock": system.now,
        "alive": alive,
        "done": done,
    }


# -- checking decoded payloads ---------------------------------------------

_KINDS = {int: "an int", str: "a string", list: "a list", dict: "an object"}
_FINISHED = {status.value for status in QueryStatus} - {QueryStatus.ALIVE.value}


def _field_error(path: str, problem: str) -> ValueError:
    """The error a snapshot decoder raises for the field at ``path``."""
    return ValueError(f"snapshot field {path!r} {problem}")


def _checked_value(value: Any, path: str, kind: type = int, low: Optional[int] = None) -> Any:
    """One field of a decoded snapshot, checked: a ``kind`` (an int is
    never a bool) of at least ``low``.  Anything else — a missing field
    reads as None — raises ValueError naming the field at ``path``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise _field_error(path, f"must be {_KINDS[kind]}, got {value!r}")
    if low is not None and value < low:
        raise _field_error(path, f"must be at least {low}, got {value!r}")
    return value


def _checked_records(value: Any, path: str) -> List[Tuple[str, dict]]:
    """A list of objects at ``path``, checked, as ``(path, record)`` pairs."""
    out = []
    for i, record in enumerate(_checked_value(value, path, list)):
        at = f"{path}[{i}]"
        out.append((at, _checked_value(record, at, dict)))
    return out


def _checked_id(value: Any, path: str) -> Any:
    """A query id at ``path``, checked: present and hashable."""
    if value is None:
        raise _field_error(path, "is missing")
    try:
        hash(value)
    except TypeError:
        raise _field_error(path, f"must be hashable, got {value!r}") from None
    return value


def _checked_query(record: dict, path: str, dims: int, seen: set) -> Query:
    """The ``query`` of a snapshot record, whose id must not be in ``seen``."""
    path = f"{path}.query"
    obj = _checked_value(record.get("query"), path, dict)
    qid = _checked_id(obj.get("id"), f"{path}.id")
    if qid in seen:
        raise _field_error(f"{path}.id", f"repeats the query id {qid!r}")
    seen.add(qid)
    _checked_value(obj.get("threshold"), f"{path}.threshold", low=1)
    if len(_checked_value(obj.get("rect"), f"{path}.rect", list)) != dims:
        raise _field_error(f"{path}.rect", f"must hold {dims} interval(s)")
    try:
        return query_from_obj(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise _field_error(f"{path}.rect", f"is not a rectangle: {exc}") from None


def check_snapshot(obj: Any, path: str = "") -> Dict[str, Any]:
    """Check a whole :func:`system_to_obj` payload before anything is
    built from it, and decode it.

    Returns ``dims``, ``engine``, ``engine_options`` and ``clock``, the
    ``alive`` queries as ``(query, consumed)`` pairs (``consumed`` is the
    ``W(q)`` their thresholds are re-based by, Section 4's rebuilding
    step) and the ``done`` ones as ``(query, status, matured_at)``
    triples.  A missing, mistyped or inconsistent field raises
    ValueError naming it (under ``path``, for a snapshot nested in
    another payload).
    """
    from .system import _engine_registry  # circular at module scope

    where = f" at {path!r}" if path else ""
    if not isinstance(obj, dict):
        raise ValueError(f"not an {SNAPSHOT_FORMAT} payload{where}: a {type(obj).__name__}")
    if obj.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"not an {SNAPSHOT_FORMAT} payload{where}: format={obj.get('format')!r}"
        )
    p = f"{path}." if path else ""
    dims = _checked_value(obj.get("dims"), p + "dims", low=1)
    engine = _checked_value(obj.get("engine"), p + "engine", str)
    registry = _engine_registry()
    if engine not in registry:
        raise _field_error(p + "engine", f"names no engine: {engine!r}")
    options = _checked_value(obj.get("engine_options", {}), p + "engine_options", dict)
    try:
        inspect.signature(registry[engine]).bind(dims, **options)
    except TypeError as exc:
        raise _field_error(p + "engine_options", f"does not fit {engine!r}: {exc}") from None
    clock = _checked_value(obj.get("clock"), p + "clock", low=0)
    seen: set = set()
    alive = []
    for at, record in _checked_records(obj.get("alive"), p + "alive"):
        query = _checked_query(record, at, dims, seen)
        consumed = _checked_value(record.get("consumed"), f"{at}.consumed", low=0)
        if consumed >= query.threshold:
            raise _field_error(f"{at}.consumed", f"reaches the threshold {query.threshold}")
        alive.append((query, consumed))
    done = []
    for at, record in _checked_records(obj.get("done"), p + "done"):
        query = _checked_query(record, at, dims, seen)
        status = _checked_value(record.get("status"), f"{at}.status", str)
        if status not in _FINISHED:
            raise _field_error(f"{at}.status", f"is not a finished status: {status!r}")
        matured_at = record.get("matured_at")
        if matured_at is not None:
            _checked_value(matured_at, f"{at}.matured_at", low=1)
        done.append((query, QueryStatus(status), matured_at))
    return {
        "dims": dims,
        "engine": engine,
        "engine_options": options,
        "clock": clock,
        "alive": alive,
        "done": done,
    }


def system_from_obj(obj: Dict[str, Any], observability=None, sanitize=None):
    """Rebuild a running :class:`~repro.core.system.RTSSystem` from a
    :func:`system_to_obj` checkpoint (inverse operation).

    The returned system continues exactly where the checkpointed one
    stood: same clock, same alive queries with their collected weight
    credited against re-based thresholds (the Section 4 rebuilding
    step), same lifecycle history for finished queries.  The payload is
    checked whole first (:func:`check_snapshot`).
    """
    from .system import RTSSystem  # circular at module scope

    snap = check_snapshot(obj)
    system = RTSSystem(
        dims=snap["dims"],
        engine=snap["engine"],
        observability=observability,
        sanitize=sanitize,
        **snap["engine_options"],
    )
    system._clock = snap["clock"]
    entries = snap["alive"]
    system.engine.restore_entries(entries)
    for query, _consumed in entries:
        system._queries[query.query_id] = query
        system._status[query.query_id] = QueryStatus.ALIVE
        if system.obs.enabled:
            system.obs.query_registered(query.query_id, system._clock)
    for query, status, matured_at in snap["done"]:
        system._queries[query.query_id] = query
        system._status[query.query_id] = status
        if matured_at is not None:
            system._maturity_times[query.query_id] = matured_at
    if system._sanitize:
        system._sanitize_check()
    return system
