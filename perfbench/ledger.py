"""Traced-run instrument: spans around each layer's public functions.

The wrappers live here, in the benchmark, and are installed by patching
class or module attributes for the duration of a traced pass; nothing in
``src/`` knows about them.  Every span records its name, start, end and
the span that caused it (its parent on the call stack).  Spans stay in
memory and are written out when the benchmark ends.

A layer's *self* time is its span duration minus the time its child
spans cover; the self times of every span in a pass, against the wall
time of the client's ops, give the ledger's residual.

Layers and the functions wrapped for them:

==================  ==================================================
``batch.pack``       ``prepare_batch`` (called by the client itself)
``system.*``         ``RTSSystem.process_batch/register/register_batch/terminate``
``engine.*``         ``DTEngine.process_batch/register/register_batch/terminate``
``dt.bisect``        ``bisect_batch`` (patched in ``dt_engine`` and in
                     ``logmethod``, which imports it by name); its
                     ``run_scalar`` callback is the ``dt.scalar`` span
``dt.collect_batch`` ``TreeInstance.collect_batch``
``dt.resync_batch``  ``TreeInstance.resync_batch``
``tree.build``       ``TreeInstance.__init__`` (set-up, merges, rebuilds)
``shard.*``          ``ShardedRTSSystem`` public calls, the executor's
                     ``process`` (``shard.executor``), ``ShardSlice.encode``
==================  ==================================================

With the parallel executor only parent-side functions are patched:
worker processes are forked while a traced pass sets up, and must not
inherit wrappers whose spans nobody reads.  The serial executor runs the
shards' systems in this process, so their layers are wrapped too.
"""

from __future__ import annotations

import json
import os
import pickle
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core import dt_engine, logmethod
from repro.core.batch import prepare_batch
from repro.core.system import RTSSystem
from repro.shard import wire
from repro.shard.executor import ParallelExecutor, SerialExecutor
from repro.shard.system import ShardedRTSSystem


class Ledger:
    """Span stack plus per-name aggregates for one traced pass at a time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: Every span of the run: (name id, start, end, parent index or -1).
        self.spans: List[Tuple[int, float, float, int]] = []
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: clear aggregates and boundary counts."""
        #: name -> [calls, inclusive seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        #: Encoded shard payloads, decoded after the pass (outside wall).
        self.payloads: List[Tuple[object, object, object]] = []
        #: Per routed batch: busy seconds of each shard.
        self.busy: List[List[float]] = []
        #: Largest private memory of a live worker, sampled at pass end.
        self.worker_private_mb = 0.0

    # -- spans ---------------------------------------------------------

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self._stack.append([nid, perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)  # filled in by exit(); keeps parent order

    def exit(self) -> None:
        end = perf_counter()
        nid, start, child, idx = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[idx] = (nid, start, end, parent[3] if parent else -1)
        row = self.agg.get(self.names[nid])
        if row is None:
            row = self.agg[self.names[nid]] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))

    def install(self, sharded: bool, in_process: bool = True) -> None:
        """Wrap the layers the workload runs in this process."""
        if sharded:
            for attr in ("process_batch", "register", "register_batch", "terminate"):
                self._wrap_attr(ShardedRTSSystem, attr, f"shard.{attr}")
            for executor in (ParallelExecutor, SerialExecutor):
                self._patch(executor, "process", self._executor_process(executor))
            self._patch(wire.ShardSlice, "encode", self._slice_encode())
        if not in_process:
            return
        engine_cls = logmethod.DTEngine
        for attr in ("process_batch", "register", "register_batch", "terminate"):
            self._wrap_attr(RTSSystem, attr, f"system.{attr}")
            self._wrap_attr(engine_cls, attr, f"engine.{attr}")
        bisect = self._bisect(dt_engine.bisect_batch)
        self._patch(dt_engine, "bisect_batch", bisect)
        self._patch(logmethod, "bisect_batch", bisect)
        tree = dt_engine.TreeInstance
        self._wrap_attr(tree, "collect_batch", "dt.collect_batch")
        self._wrap_attr(tree, "resync_batch", "dt.resync_batch")
        self._wrap_attr(tree, "__init__", "tree.build")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pack(self, elements, dims: int):
        """``prepare_batch`` as the client calls it, traced."""
        self.enter("batch.pack")
        try:
            batch = prepare_batch(elements, dims)
        finally:
            self.exit()
        self.count("pack.batches")
        self.count("pack.vectorizable", batch.vectorizable)
        return batch

    def sample_workers(self) -> None:
        """Record the largest private memory among this process's children.

        Read while the workers are alive, before the system closes them.
        Private pages (clean + dirty) are the ones a worker does not share
        with the router it was forked from, so the figure is the worker's
        own memory, not the router's inherited heap.
        """
        self.worker_private_mb = max(
            (private_mb(pid) for pid in child_pids()), default=0.0
        )

    def _bisect(self, original):
        ledger = self

        def bisect_batch(engine, batch, timestamp, try_bulk, run_scalar):
            def traced_try(lo, hi, hints=None, stash=None):
                ok = try_bulk(lo, hi, hints, stash)
                ledger.count("bulk.attempts")
                ledger.count("bulk.ok", ok)
                return ok

            def traced_scalar(lo, hi, events, hints=None, stash=None):
                ledger.count("scalar.elements", hi - lo)
                ledger.enter("dt.scalar")
                try:
                    run_scalar(lo, hi, events, hints, stash)
                finally:
                    ledger.exit()

            ledger.count("bisect.elements", batch.size)
            ledger.enter("dt.bisect")
            try:
                return original(engine, batch, timestamp, traced_try, traced_scalar)
            finally:
                ledger.exit()

        return bisect_batch

    def _executor_process(self, executor_cls):
        original = executor_cls.__dict__["process"]
        ledger = self

        def process(executor, slices, trace=None):
            for shard, sl in slices.items():
                ledger.count(f"routed.{shard}", len(sl))
            ledger.enter("shard.executor")
            try:
                outcomes = original(executor, slices, trace)
            finally:
                ledger.exit()
            ledger.busy.append([busy for _keys, busy, _payload in outcomes.values()])
            return outcomes

        return process

    def _slice_encode(self):
        original = wire.ShardSlice.__dict__["encode"]
        ledger = self

        def encode(sl):
            ledger.enter("shard.encode")
            try:
                payload = original(sl)
            finally:
                ledger.exit()
            ledger.payloads.append(payload)
            return payload

        return encode

    # -- per-pass results -----------------------------------------------------

    def _incl(self, name: str) -> float:
        row = self.agg.get(name)
        return row[1] if row else 0.0

    def _self(self, name: str) -> float:
        row = self.agg.get(name)
        return row[2] if row else 0.0

    def _calls(self, name: str) -> int:
        row = self.agg.get(name)
        return int(row[0]) if row else 0

    def pass_metrics(
        self,
        wall: float,
        elements: int,
        work: Dict[str, int],
        obs_totals: Dict[str, float],
        shards: int,
        in_process: bool = True,
    ) -> Dict[str, float]:
        """The per-layer metrics of the pass just traced."""
        c = self.counts
        m: Dict[str, float] = {}
        pack_s = self._self("batch.pack")
        m["batch.pack_s"] = pack_s
        m["batch.pack_us_per_elem"] = pack_s / elements * 1e6
        m["batch.vectorizable_frac"] = _ratio(
            c.get("pack.vectorizable", 0), c.get("pack.batches", 0)
        )
        sys_names = [n for n in self.agg if n.startswith("system.")]
        m["system.process_batch_s"] = self._incl("system.process_batch")
        m["system.register_s"] = self._incl("system.register")
        m["system.terminate_s"] = self._incl("system.terminate")
        m["system.overhead_s"] = sum(self._self(n) for n in sys_names)
        m["engine.process_batch_s"] = self._incl("engine.process_batch")
        m["engine.register_s"] = self._incl("engine.register")
        m["engine.terminate_s"] = self._incl("engine.terminate")
        m["dt.collect_batch_calls"] = self._calls("dt.collect_batch")
        m["dt.collect_batch_s"] = self._incl("dt.collect_batch")
        m["dt.collect_batch_ok_frac"] = _ratio(
            c.get("bulk.ok", 0), c.get("bulk.attempts", 0)
        )
        m["dt.resync_batch_s"] = self._incl("dt.resync_batch")
        m["dt.bisect_calls"] = self._calls("dt.bisect")
        m["dt.bisect_s"] = self._incl("dt.bisect")
        m["dt.scalar_elements"] = c.get("scalar.elements", 0)
        m["dt.scalar_s"] = self._incl("dt.scalar")
        m["dt.scalar_frac"] = _ratio(
            c.get("scalar.elements", 0), c.get("bisect.elements", 0)
        )
        m["tree.builds"] = self._calls("tree.build")
        m["tree.build_s"] = self._incl("tree.build")
        m["work.counter_bumps_per_elem"] = work.get("counter_bumps", 0) / elements
        m["work.heap_ops_per_elem"] = work.get("heap_ops", 0) / elements
        m["work.node_visits_per_elem"] = work.get("node_visits", 0) / elements
        m["work.messages"] = work.get("messages", 0)
        m["work.rounds"] = work.get("rounds", 0)
        m["work.rebuilds"] = work.get("rebuilds", 0)
        m["obs.columnar_descents"] = obs_totals.get("rts_columnar_descents_total", 0)
        m["obs.columnar_fallbacks"] = obs_totals.get("rts_columnar_fallbacks_total", 0)
        m["obs.batch_bisections"] = obs_totals.get("rts_batch_bisections_total", 0)
        m.update(self._shard_metrics(elements, shards, in_process))
        covered = sum(row[2] for row in self.agg.values())
        m["trace.residual_frac"] = _ratio(wall - covered, wall)
        return m

    def _shard_metrics(
        self, elements: int, shards: int, in_process: bool
    ) -> Dict[str, float]:
        m = {
            "shard.route_s": self._self("shard.process_batch"),
            "shard.encode_s": self._incl("shard.encode"),
            "shard.rpc_s": self._self("shard.executor"),
        }
        m["shard.worker_busy_s"] = sum(sum(b) for b in self.busy)
        m["shard.worker_busy_max_s"] = sum(max(b) for b in self.busy if b)
        # In-process shards have no IPC; the executor's self time there
        # excludes the shards' own spans, which busy time includes.
        m["shard.ipc_wait_s"] = (
            0.0 if in_process else m["shard.rpc_s"] - m["shard.worker_busy_max_s"]
        )
        decode_s = 0.0
        wire_bytes = 0
        for values, weights, timestamps in self.payloads:
            started = perf_counter()
            wire.decode_elements(values, weights)
            decode_s += perf_counter() - started
            wire_bytes += len(
                pickle.dumps((values, weights, timestamps), pickle.HIGHEST_PROTOCOL)
            )
        m["shard.decode_s"] = decode_s
        m["shard.wire_bytes_per_elem"] = wire_bytes / elements
        routed = [self.counts.get(f"routed.{k}", 0) for k in range(shards)]
        total = sum(routed)
        m["shard.routed_frac"] = _ratio(total, shards * elements)
        m["shard.skew_ratio"] = max(routed) * shards / total if total else 0.0
        m["shard.worker_rss_mb"] = self.worker_private_mb
        return m

    def table(self, wall: float) -> List[Dict[str, object]]:
        """Per-span-name rows of the pass: calls, inclusive, self, share."""
        return [
            {
                "layer": name,
                "calls": int(row[0]),
                "inclusive_s": row[1],
                "self_s": row[2],
                "self_share": _ratio(row[2], wall),
            }
            for name, row in sorted(self.agg.items(), key=lambda kv: -kv[1][2])
        ]

    def dump(self, path, summary: Dict[str, object]) -> None:
        """Write the run's ledger tables and every recorded span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(summary)
        doc["span_names"] = self.names
        doc["spans_columns"] = ["name", "start_us", "duration_us", "parent"]
        doc["spans"] = [
            [nid, round((s - t0) * 1e6, 1), round((e - s) * 1e6, 1), parent]
            for nid, s, e, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def child_pids() -> List[int]:
    """Live processes whose parent is this process (from ``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # ended between listdir and open
            continue
        # The command name may hold spaces; ppid is the 2nd field after it.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry))
    return pids


def private_mb(pid: int) -> float:
    """``Private_Clean + Private_Dirty`` of a process, in MB."""
    kb = 0
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                kb += int(line.split()[1])
    return kb / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
