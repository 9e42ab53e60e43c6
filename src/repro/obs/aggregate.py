"""Cross-process metric aggregation: the ``rts-metrics-v1`` wire format.

A parallel shard worker owns a private :class:`MetricsRegistry`; without
this module every counter it bumps dies with the worker process.  The
protocol here is the one Yi–Zhang-style distributed tracking uses for
its own accounting: each site ships *deltas* of its local registry and
the coordinator folds them into its registry under a source label.

Wire format (JSON-compatible)::

    {
      "format": "rts-metrics-v1",
      "kind": "snapshot" | "delta",
      "families": {
        "<name>": {
          "type": "counter" | "gauge" | "histogram",
          "buckets": [...],               # histograms only
          "samples": [
            {"labels": {...}, "value": v},                      # scalar
            {"labels": {...}, "counts": [...], "sum": s,
             "count": c},                                       # histogram
          ],
        },
      },
    }

Merge semantics (per the central catalog, :mod:`repro.obs.catalog`):

* **counters** sum;
* **gauges** resolve by their declared ``gauge_policy`` (``last`` /
  ``max`` / ``sum``) when a sample lands on an existing label set;
* **histograms** merge bucket-wise — which is only sound because every
  registry uses the catalog's bucket bounds; :func:`merge_into` raises
  on any mismatch rather than producing silently wrong percentiles.

:func:`merge_into` reads payloads other processes sent, so it validates
the whole payload before it changes the registry: a malformed one raises
ValueError naming the family and merges nothing.

Deltas are what shard workers piggyback on each batch reply: counters
and histograms subtract their previous snapshot (zero rows dropped, so
an idle family costs nothing on the wire); gauges always carry the
current value (they are levels, not flows).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from .catalog import spec_for
from .metrics import Histogram, MetricsRegistry

#: Format tag of every payload this module produces.
METRICS_FORMAT = "rts-metrics-v1"


def registry_snapshot(registry: MetricsRegistry) -> Dict[str, object]:
    """Full ``rts-metrics-v1`` snapshot of a registry's current state."""
    families: Dict[str, object] = {}
    for family in registry.families():
        samples: List[Dict[str, object]] = []
        for key in sorted(family.instruments):
            instrument = family.instruments[key]
            sample: Dict[str, object] = {"labels": dict(key)}
            if isinstance(instrument, Histogram):
                sample["counts"] = list(instrument.counts)
                sample["sum"] = instrument.sum
                sample["count"] = instrument.count
            else:
                sample["value"] = instrument.value
            samples.append(sample)
        entry: Dict[str, object] = {"type": family.kind, "samples": samples}
        if family.kind == "histogram" and family.buckets is not None:
            entry["buckets"] = list(family.buckets)
        families[family.name] = entry
    return {"format": METRICS_FORMAT, "kind": "snapshot", "families": families}


def snapshot_delta(
    current: Dict[str, object], previous: Optional[Dict[str, object]]
) -> Dict[str, object]:
    """The change from ``previous`` to ``current`` (both snapshots).

    Counters and histograms subtract; all-zero rows are dropped so idle
    families cost nothing on the wire.  Gauges pass through the current
    value (a level, not a flow).  ``previous=None`` means everything is
    new: the delta equals the snapshot.
    """
    _check_format(current, "snapshot")
    prev_families: Dict[str, object] = {}
    if previous is not None:
        _check_format(previous, "snapshot")
        prev_families = previous["families"]
    families: Dict[str, object] = {}
    for name, entry in current["families"].items():
        prev_entry = prev_families.get(name, {"samples": []})
        prev_samples = {
            _sample_key(s["labels"]): s for s in prev_entry["samples"]
        }
        samples: List[Dict[str, object]] = []
        for sample in entry["samples"]:
            prev = prev_samples.get(_sample_key(sample["labels"]))
            if entry["type"] == "counter":
                base = prev["value"] if prev else 0
                diff = sample["value"] - base
                if diff:
                    samples.append({"labels": dict(sample["labels"]), "value": diff})
            elif entry["type"] == "gauge":
                samples.append(dict(sample))
            else:  # histogram
                base_counts = prev["counts"] if prev else [0] * len(sample["counts"])
                counts = [c - b for c, b in zip(sample["counts"], base_counts)]
                count = sample["count"] - (prev["count"] if prev else 0)
                if count or any(counts):
                    samples.append(
                        {
                            "labels": dict(sample["labels"]),
                            "counts": counts,
                            "sum": sample["sum"] - (prev["sum"] if prev else 0),
                            "count": count,
                        }
                    )
        if samples:
            out_entry: Dict[str, object] = {"type": entry["type"], "samples": samples}
            if "buckets" in entry:
                out_entry["buckets"] = list(entry["buckets"])
            families[name] = out_entry
    return {"format": METRICS_FORMAT, "kind": "delta", "families": families}


def merge_into(
    registry: MetricsRegistry,
    payload: Dict[str, object],
    labels: Optional[Mapping[str, str]] = None,
) -> int:
    """Fold a snapshot/delta into ``registry``; returns samples merged.

    ``labels`` (e.g. ``{"shard": "0"}``) are added to every incoming
    sample, so per-source series stay distinguishable in the merged
    registry.  The whole payload is validated before the registry is
    touched (see :func:`_validated`): a malformed one raises ValueError,
    naming the family at fault, and merges nothing.
    """
    extra = dict(labels or {})
    merged = 0
    for name, kind, spec, buckets, samples in _validated(registry, payload):
        help_text = spec.help if spec is not None else ""
        for sample in samples:
            all_labels = {**sample["labels"], **extra}
            if kind == "counter":
                registry.counter(name, help_text, **all_labels).inc(sample["value"])
            elif kind == "gauge":
                gauge = registry.gauge(name, help_text, **all_labels)
                policy = spec.gauge_policy if spec is not None else "last"
                if policy == "sum":
                    gauge.inc(sample["value"])
                elif policy == "max":
                    gauge.set(max(gauge.value, sample["value"]))
                else:  # "last"
                    gauge.set(sample["value"])
            else:  # histogram
                hist = registry.histogram(name, buckets, help_text, **all_labels)
                for i, c in enumerate(sample["counts"]):
                    hist.counts[i] += c
                hist.sum += sample["sum"]
                hist.count += sample["count"]
            merged += 1
    return merged


def _validated(registry: MetricsRegistry, payload) -> List[tuple]:
    """Check a whole ``rts-metrics-v1`` payload against the catalog and
    ``registry``; returns ``(name, kind, spec, buckets, samples)`` per
    family.

    A family must declare a known ``type`` matching the catalog and the
    registry, and carry a list of samples.  Every sample needs a
    ``labels`` mapping of strings; counters and gauges a finite numeric
    ``value`` (counters non-negative — a negative delta means the source
    registry went backwards); histograms one non-negative integer count
    per bucket plus overflow, a numeric ``sum`` and a ``count`` equal to
    the counts' total.  Histogram buckets must match the catalog's (and
    the registry's) bounds: bucket-wise merging requires identical ones.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"not an {METRICS_FORMAT} payload: a {type(payload).__name__}"
        )
    _check_format(payload, None)
    families = payload.get("families")
    if not isinstance(families, dict):
        raise ValueError(f"{METRICS_FORMAT} payload has no 'families' mapping")
    existing = {family.name: family for family in registry.families()}
    plan = []
    for name, entry in families.items():
        if not isinstance(entry, dict):
            raise _bad(name, "family entry is not a mapping")
        kind = entry.get("type")
        if kind not in ("counter", "gauge", "histogram"):
            raise _bad(name, f"unknown type {kind!r}")
        spec = spec_for(name)
        if spec is not None and spec.kind != kind:
            raise _bad(
                name, f"arrived as a {kind}; the catalog declares a {spec.kind}"
            )
        family = existing.get(name)
        if family is not None and family.kind != kind:
            raise _bad(
                name, f"arrived as a {kind}; the registry holds a {family.kind}"
            )
        buckets = None
        if kind == "histogram":
            buckets = _histogram_buckets(name, entry.get("buckets"), spec, family)
        samples = entry.get("samples")
        if not isinstance(samples, list):
            raise _bad(name, "'samples' is not a list")
        for sample in samples:
            _check_sample(name, kind, buckets, sample)
        plan.append((name, kind, spec, buckets, samples))
    return plan


def _histogram_buckets(name: str, buckets, spec, family) -> Tuple[float, ...]:
    if buckets is not None:
        if not isinstance(buckets, list) or not buckets or not all(
            _is_number(b) for b in buckets
        ):
            raise _bad(name, f"malformed buckets {buckets!r}")
        if any(a >= b for a, b in zip(buckets, buckets[1:])):
            raise _bad(name, f"buckets {buckets} are not strictly increasing")
    if spec is not None and spec.buckets is not None:
        if buckets is not None and tuple(buckets) != tuple(spec.buckets):
            raise _bad(
                name,
                f"arrived with buckets {buckets}; the catalog declares "
                f"{list(spec.buckets)} (bucket-wise merging requires "
                "identical bounds)",
            )
        buckets = spec.buckets
    if buckets is None:
        raise _bad(
            name,
            "histogram has no bucket declaration in the payload or the "
            "catalog; refusing to merge",
        )
    bounds = tuple(float(b) for b in buckets)
    if family is not None and family.buckets not in (None, bounds):
        raise _bad(name, "buckets differ from the registry's histogram")
    return bounds


def _check_sample(name: str, kind: str, buckets, sample) -> None:
    if not isinstance(sample, dict):
        raise _bad(name, f"sample {sample!r} is not a mapping")
    labels = sample.get("labels")
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        raise _bad(name, f"sample labels {labels!r} are not a str mapping")
    if kind != "histogram":
        value = sample.get("value")
        if not _is_number(value):
            raise _bad(name, f"sample value {value!r} is not a finite number")
        if kind == "counter" and value < 0:
            raise _bad(
                name, f"counter delta is negative ({value}); source registry "
                "went backwards",
            )
        return
    counts = sample.get("counts")
    if (
        not isinstance(counts, list)
        or len(counts) != len(buckets) + 1
        or not all(_is_count(c) for c in counts)
    ):
        raise _bad(
            name, f"histogram counts {counts!r} are not {len(buckets) + 1} "
            "non-negative integers",
        )
    if not _is_number(sample.get("sum")):
        raise _bad(name, f"histogram sum {sample.get('sum')!r} is not a number")
    if not _is_count(sample.get("count")) or sample["count"] != sum(counts):
        raise _bad(
            name, f"histogram count {sample.get('count')!r} does not equal "
            f"the bucket total {sum(counts)}",
        )


def _is_number(x) -> bool:
    return (
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    )


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _bad(name: str, why: str) -> ValueError:
    return ValueError(f"metric {name!r}: {why}")


# -- conservation accounting -------------------------------------------------


def deterministic_totals(registry: MetricsRegistry) -> Dict[str, object]:
    """Family totals of every *deterministic* counter and histogram.

    Counters map to their family total (summed over label sets);
    histograms to ``{"counts": [...], "sum": s, "count": c}`` summed
    element-wise over label sets.  Gauges (levels) and metrics the
    catalog marks ``deterministic=False`` (wall-clock timers) are
    excluded — this is exactly the set over which the serial and
    parallel shard executors must agree bit-for-bit (the conservation
    contract in ``docs/OBSERVABILITY.md``).

    rtscheck: deterministic-surface
    """
    out: Dict[str, object] = {}
    for family in registry.families():
        spec = spec_for(family.name)
        if spec is not None and not spec.deterministic:
            continue
        if family.kind == "counter":
            total = sum(inst.value for inst in family.instruments.values())
            if total:
                out[family.name] = total
        elif family.kind == "histogram":
            instruments = list(family.instruments.values())
            if not instruments:
                continue
            counts = [0] * len(instruments[0].counts)
            total_sum = 0
            total_count = 0
            for inst in instruments:
                for i, c in enumerate(inst.counts):
                    counts[i] += c
                total_sum += inst.sum
                total_count += inst.count
            if total_count:
                out[family.name] = {
                    "counts": counts,
                    "sum": total_sum,
                    "count": total_count,
                }
    return out


def add_totals(
    a: Dict[str, object], b: Dict[str, object]
) -> Dict[str, object]:
    """Combine two :func:`deterministic_totals` results additively.

    Used to account across a mid-stream snapshot/restore: the restored
    run's registry starts from zero, so the full-run totals are the sum
    of the two phases' totals (for flow metrics; that is why
    :func:`deterministic_totals` carries no gauges)."""
    out: Dict[str, object] = dict(a)
    for name, value in b.items():
        if name not in out:
            out[name] = value
        elif isinstance(value, dict):
            prior = out[name]
            out[name] = {
                "counts": [
                    x + y for x, y in zip(prior["counts"], value["counts"])
                ],
                "sum": prior["sum"] + value["sum"],
                "count": prior["count"] + value["count"],
            }
        else:
            out[name] = out[name] + value
    return out


def labelled_total(registry: MetricsRegistry, name: str, **labels: str):
    """Sum of a counter/gauge family over label sets containing ``labels``.

    Returns 0 when the family (or no matching label set) exists — the
    forgiving read the bench harness wants when a shard happened to
    process nothing."""
    want = {(str(k), str(v)) for k, v in labels.items()}
    for family in registry.families():
        if family.name != name or family.kind == "histogram":
            continue
        return sum(
            inst.value
            for key, inst in family.instruments.items()
            if want <= set(key)
        )
    return 0


def family_histogram(
    registry: MetricsRegistry, name: str, **labels: str
) -> Optional[Tuple[Histogram, int]]:
    """Element-wise combination of a histogram family's instruments.

    Returns ``(combined, instruments_merged)`` over the label sets
    containing ``labels``, or None when nothing matches.  The combined
    histogram is a fresh instrument — mutating it does not touch the
    registry."""
    want = {(str(k), str(v)) for k, v in labels.items()}
    for family in registry.families():
        if family.name != name or family.kind != "histogram":
            continue
        matched = [
            inst
            for key, inst in family.instruments.items()
            if want <= set(key)
        ]
        if not matched:
            return None
        combined = Histogram(family.buckets)
        for inst in matched:
            for i, c in enumerate(inst.counts):
                combined.counts[i] += c
            combined.sum += inst.sum
            combined.count += inst.count
        return combined, len(matched)
    return None


# -- helpers -----------------------------------------------------------------


def _sample_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_format(payload: Dict[str, object], kind: Optional[str]) -> None:
    if payload.get("format") != METRICS_FORMAT:
        raise ValueError(
            f"not an {METRICS_FORMAT} payload: format={payload.get('format')!r}"
        )
    if kind is not None and payload.get("kind") != kind:
        raise ValueError(
            f"expected a {kind!r} payload, got kind={payload.get('kind')!r}"
        )


__all__ = [
    "METRICS_FORMAT",
    "add_totals",
    "deterministic_totals",
    "family_histogram",
    "labelled_total",
    "merge_into",
    "registry_snapshot",
    "snapshot_delta",
]
