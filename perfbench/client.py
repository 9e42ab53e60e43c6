"""The closed-loop client: one caller that waits for every call to return.

A *pass* is one life of a system: set-up (construction, worker start
and the initial ``register_batch``), then the workload's ops in order.
On the static workloads, single registrations (probes) and then single
terminations follow the stream, on the loaded system.  Each public call
is timed on its own with ``perf_counter``; the client's bookkeeping
(event capture, oracle checks) runs outside those intervals.

Noise hygiene, and why:

* inputs, scripts and oracles are built before any timer and outside
  ``setup_s``, so generation cost never reads as system cost;
* ``gc.collect()`` runs before every pass and the collector stays on,
  so each pass starts from the same heap and collections that the
  system's own garbage triggers are still paid where they fall;
* the generated inputs are moved out of the collector's reach with
  ``gc.freeze()`` (see ``run.py``), so a full collection scans the
  system's objects, not ~300k input objects a real caller would not
  hold; forked shard workers inherit the frozen heap too;
* a warm-up pass precedes every measured phase;
* the peak-heap pass runs on its own, because tracemalloc slows every
  allocation and must not touch a timed pass;
* systems are built with ``sanitize=False`` (see ``workloads``), so an
  ``RTS_SANITIZE`` environment flag cannot switch checks on.

Wall time, not CPU time: on a shared 2-vCPU VM both vary alike, and the
caller of a synchronous library waits for wall time.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.batch import prepare_batch

from workloads import BATCH, REGISTER, Workload


class BenchFailure(Exception):
    """A public call raised; the pass cannot be checked further."""


@dataclass
class PassResult:
    setup_s: float = 0.0
    #: (elements, seconds) of every op of the ingest phase, in order.
    ops: List[Tuple[int, float]] = field(default_factory=list)
    batch_s: List[float] = field(default_factory=list)
    register_s: List[float] = field(default_factory=list)
    terminate_s: List[float] = field(default_factory=list)
    elements: int = 0
    attempted: int = 0
    failed: int = 0
    #: Wall time of all timed calls of the pass (set-up included).
    wall: float = 0.0
    work: Dict[str, int] = field(default_factory=dict)
    obs_totals: Dict[str, float] = field(default_factory=dict)


def _work_counters(system) -> Dict[str, int]:
    if hasattr(system, "aggregate_work_counters"):
        return system.aggregate_work_counters()
    return system.work_counters.snapshot()


def run_pass(
    wl: Workload,
    variant: int = 0,
    limit_elements: Optional[int] = None,
    check_progress: bool = False,
    ledger=None,
    observability=None,
) -> PassResult:
    """Run one pass; raises :class:`BenchFailure` if a public call raises.

    ``variant`` picks the input stream.  ``limit_elements`` stops the
    ingest phase after that many elements and skips the probe
    registrations and closing terminations (warm-up and peak-heap
    passes).  Otherwise the probes are registered one at a time after
    the stream (and after the ``progress`` check), then the closing
    terminations run one at a time.
    """
    res = PassResult()
    pack = prepare_batch if ledger is None else ledger.pack
    make = wl.make_system if ledger is None else ledger.wrap("setup", wl.make_system)
    dims = wl.dims
    inputs = wl.variants[variant]
    gc.collect()
    system = None
    try:
        full = limit_elements is None
        started = perf_counter()
        system = make(observability)
        res.setup_s = perf_counter() - started
        t = perf_counter()
        system.register_batch(inputs.queries)
        res.setup_s += perf_counter() - t
        res.wall = res.setup_s
        res.attempted += 1
        observed: Dict[object, Tuple[int, int]] = {}
        duplicates = 0
        for kind, payload in inputs.ops:
            if limit_elements is not None and res.elements >= limit_elements:
                break
            if kind == BATCH:
                t = perf_counter()
                events = system.process_batch(pack(payload, dims))
                dt = perf_counter() - t
                res.wall += dt
                res.batch_s.append(dt)
                res.ops.append((len(payload), dt))
                res.elements += len(payload)
                for e in events:
                    qid = e.query.query_id
                    duplicates += qid in observed
                    observed[qid] = (e.timestamp, e.weight_seen)
            elif kind == REGISTER:
                t = perf_counter()
                system.register(payload)
                dt = perf_counter() - t
                res.wall += dt
                res.register_s.append(dt)
                res.ops.append((0, dt))
            else:
                t = perf_counter()
                removed = system.terminate(payload)
                dt = perf_counter() - t
                res.wall += dt
                res.terminate_s.append(dt)
                res.ops.append((0, dt))
                res.failed += not removed
            res.attempted += 1
        res.failed += duplicates + _mismatches(
            observed, inputs.expected_prefix(None if full else res.elements)
        )
        if check_progress:
            for qid, weight in inputs.final_weights.items():
                res.attempted += 1
                res.failed += system.progress(qid)[0] != weight
        for query in wl.probes if full else ():
            t = perf_counter()
            system.register(query)
            dt = perf_counter() - t
            res.wall += dt
            res.register_s.append(dt)
            res.attempted += 1
        for qid in inputs.closing_terminations if full else ():
            t = perf_counter()
            removed = system.terminate(qid)
            dt = perf_counter() - t
            res.wall += dt
            res.terminate_s.append(dt)
            res.attempted += 1
            res.failed += not removed
        if ledger is not None:
            res.work = _work_counters(system)
            res.obs_totals = {
                name: observability.metrics.family_total(name)
                for name in (
                    "rts_columnar_descents_total",
                    "rts_columnar_fallbacks_total",
                    "rts_batch_bisections_total",
                )
            }
            if wl.sharded:
                ledger.sample_workers()
    except Exception as exc:  # any raised public call fails the run
        raise BenchFailure(f"{wl.name}: {type(exc).__name__}: {exc}") from exc
    finally:
        if system is not None and wl.sharded:
            system.close()
    return res


def _mismatches(
    observed: Dict[object, Tuple[int, int]], expected: Dict[object, Tuple[int, int]]
) -> int:
    """Maturities missing, extra, or at the wrong element or weight."""
    keys = observed.keys() | expected.keys()
    return sum(observed.get(k) != expected.get(k) for k in keys)


def peak_heap_mb(wl: Workload) -> Tuple[float, PassResult]:
    """tracemalloc peak over set-up plus the first ``heap_elements``."""
    gc.collect()
    tracemalloc.start()
    try:
        res = run_pass(wl, limit_elements=wl.heap_elements)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20, res


@dataclass
class Phase:
    """Every pass of one measured phase, plus derived samples."""

    passes: List[PassResult]

    def throughput(self) -> float:
        """Elements ingested over the summed time of the ingest calls."""
        elements = sum(p.elements for p in self.passes)
        return elements / sum(dt for p in self.passes for _n, dt in p.ops)


def run_phase(
    wl: Workload,
    seconds: float,
    cycle: bool = True,
    ledger=None,
    make_obs=None,
    on_pass=None,
) -> Phase:
    """Whole passes until ``seconds`` are used (at least one).

    Passes cycle through the workload's input variants (or all replay
    the first one when ``cycle`` is false, as the traced run does, so
    its counts describe one fixed input).  Another pass starts only
    while at least half a pass's time remains, so a run overshoots its
    budget by at most about half a pass.  The first pass also checks
    every surviving query's ``progress``.
    """
    passes: List[PassResult] = []
    started = perf_counter()
    while True:
        obs = make_obs() if make_obs is not None else None
        if ledger is not None:
            ledger.reset()
        variant = len(passes) % len(wl.variants) if cycle else 0
        p = run_pass(
            wl,
            variant,
            check_progress=not passes,
            ledger=ledger,
            observability=obs,
        )
        passes.append(p)
        if on_pass is not None:
            on_pass(p)
        elapsed = perf_counter() - started
        if seconds - elapsed < elapsed / len(passes) / 2:
            return Phase(passes)
