"""Malformed ``rts-metrics-v1`` payloads: :func:`merge_into` must raise
ValueError and leave the registry exactly as it was.

Shard worker processes send these payloads, so the decoder may see
anything.  The fuzz test corrupts one spot of a valid delta — the
payload, a family, or one sample — and moves the corrupted family to the
end, after families that would merge cleanly, so a decoder that merges
while it checks leaves a trace in the registry.
"""

import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.obs.aggregate import (
    METRICS_FORMAT,
    merge_into,
    registry_snapshot,
    snapshot_delta,
)


def _worker_delta() -> dict:
    """A valid delta with counters (plain and labelled), gauges and
    histograms, every family from the catalog."""
    obs = Observability()
    obs.element_processed(3, 5)
    obs.inc("rts_dt_messages_total", 4, type="signal")
    obs.inc("rts_dt_messages_total", 2, type="slack")
    obs.query_registered("q", 1)
    obs.query_matured("q", 3, 9)
    obs.set("rts_shard_skew_ratio", 1.25)
    obs.observe("rts_phase_seconds", 0.003, phase="descend")
    return snapshot_delta(registry_snapshot(obs.metrics), None)


BASE = _worker_delta()
FAMILIES = sorted(BASE["families"])


def _parent() -> Observability:
    """A parent registry that already holds merged shard data."""
    obs = Observability()
    merge_into(obs.metrics, BASE, labels={"shard": "0"})
    return obs


# -- corruptions --------------------------------------------------------------
# Each takes (payload, family name) and returns the corrupted payload.


def _replace_payload(value):
    return lambda payload, name: value


def _drop_top(key):
    def corrupt(payload, name):
        del payload[key]
        return payload

    return corrupt


def _set_top(key, value):
    def corrupt(payload, name):
        payload[key] = value
        return payload

    return corrupt


TOP_LEVEL = [
    _replace_payload([]),
    _replace_payload([BASE]),
    _replace_payload("rts-metrics-v1"),
    _replace_payload(None),
    _replace_payload(7),
    _drop_top("format"),
    _set_top("format", "rts-metrics-v0"),
    _drop_top("families"),
    _set_top("families", []),
    _set_top("families", None),
    _set_top("families", "x"),
]


def _family(fn):
    def corrupt(payload, name):
        families = payload["families"]
        families[name] = fn(families.pop(name))  # re-inserted last
        return payload

    return corrupt


def _sample(fn):
    def corrupt_entry(entry):
        entry["samples"][-1] = fn(entry["samples"][-1])
        return entry

    return _family(corrupt_entry)


def _without(key):
    def drop(d):
        del d[key]
        return d

    return drop


def _with(key, value):
    def put(d):
        d[key] = value
        return d

    return put


def _other_kind(entry):
    kinds = ["counter", "gauge", "histogram"]
    kinds.remove(entry["type"])
    entry["type"] = kinds[0]
    return entry


FAMILY_LEVEL = [
    _family(lambda entry: []),
    _family(lambda entry: "counter"),
    _family(lambda entry: None),
    _family(_without("type")),
    _family(_with("type", "wat")),
    _family(_with("type", None)),
    _family(_with("type", 3)),
    _family(_other_kind),  # every family is cataloged: a kind mismatch
    _family(_without("samples")),
    _family(_with("samples", {})),
    _family(_with("samples", "x")),
    _family(_with("samples", None)),
    _sample(lambda sample: []),
    _sample(lambda sample: "sample"),
    _sample(lambda sample: None),
    _sample(_without("labels")),
    _sample(_with("labels", [])),
    _sample(_with("labels", "shard=0")),
    _sample(_with("labels", None)),
    _sample(_with("labels", {"shard": 0})),
    _sample(_with("labels", {1: "x"})),
]


SCALAR_SAMPLE = [
    _sample(_without("value")),
    _sample(_with("value", "3")),
    _sample(_with("value", None)),
    _sample(_with("value", [1])),
    _sample(_with("value", True)),
    _sample(_with("value", math.nan)),
    _sample(_with("value", math.inf)),
]

COUNTER_SAMPLE = [_sample(_with("value", -1))]


def _counts(fn):
    def change(sample):
        sample["counts"] = fn(list(sample["counts"]))
        return sample

    return _sample(change)


def _bump(index, value):
    def put(counts):
        counts[index] = value
        return counts

    return put


HISTOGRAM_SAMPLE = [
    _sample(_without("counts")),
    _sample(_with("counts", "1,2")),
    _sample(_with("counts", None)),
    _counts(lambda counts: counts + [0]),
    _counts(lambda counts: counts[:-1]),
    _counts(_bump(0, -1)),
    _counts(_bump(0, "1")),
    _counts(_bump(0, 1.5)),
    _counts(_bump(0, None)),
    _sample(_without("sum")),
    _sample(_with("sum", "0.1")),
    _sample(_with("sum", None)),
    _sample(_with("sum", math.nan)),
    _sample(_without("count")),
    _sample(_with("count", "1")),
    _sample(_with("count", -1)),
    _sample(lambda sample: {**sample, "count": sample["count"] + 1}),
    _family(_with("buckets", [1.0, 99.0])),
    _family(_with("buckets", "x")),
    _family(_with("buckets", [2.0, 1.0])),
]


@st.composite
def malformed(draw):
    """``(payload, family named in the error or None)``."""
    payload = copy.deepcopy(BASE)
    name = draw(st.sampled_from(FAMILIES))
    choices = [(c, None) for c in TOP_LEVEL] + [(c, name) for c in FAMILY_LEVEL]
    kind = BASE["families"][name]["type"]
    if kind == "histogram":
        choices += [(c, name) for c in HISTOGRAM_SAMPLE]
    else:
        choices += [(c, name) for c in SCALAR_SAMPLE]
        if kind == "counter":
            choices += [(c, name) for c in COUNTER_SAMPLE]
    corrupt, named = draw(st.sampled_from(choices))
    return corrupt(payload, name), named


def _delta(families):
    return {"format": METRICS_FORMAT, "kind": "delta", "families": families}


@settings(max_examples=300, deadline=None)
@given(malformed())
# Payloads the decoder once failed on with raw errors (in this order:
# UnboundLocalError, AttributeError, TypeError, KeyError, KeyError).
@example((_delta({"rts_x": {"type": "wat", "samples": []}}), "rts_x"))
@example(([METRICS_FORMAT], None))
@example(
    (
        _delta(
            {
                "rts_elements_total": {
                    "type": "counter",
                    "samples": [{"labels": {}, "value": "3"}],
                }
            }
        ),
        "rts_elements_total",
    )
)
@example(
    (
        _delta({"rts_elements_total": {"type": "counter", "samples": [{"value": 1}]}}),
        "rts_elements_total",
    )
)
@example(({"format": METRICS_FORMAT, "kind": "delta"}, None))
def test_malformed_payload_raises_and_merges_nothing(case):
    payload, named = case
    obs = _parent()
    before = registry_snapshot(obs.metrics)
    with pytest.raises(ValueError) as info:
        merge_into(obs.metrics, payload, labels={"shard": "1"})
    if named is not None:
        assert repr(named) in str(info.value)
    assert registry_snapshot(obs.metrics) == before


def test_the_base_payload_is_valid():
    obs = _parent()
    assert merge_into(obs.metrics, copy.deepcopy(BASE), labels={"shard": "1"}) > 0
    assert obs.metrics.value("rts_dt_messages_total", shard="1", type="signal") == 4


def test_a_bad_family_after_a_good_one_merges_neither():
    obs = _parent()
    payload = {
        "format": METRICS_FORMAT,
        "kind": "delta",
        "families": {
            "rts_elements_total": {
                "type": "counter",
                "samples": [{"labels": {}, "value": 3}],
            },
            "rts_phase_seconds": {
                "type": "histogram",
                "samples": [{"labels": {"phase": "route"}, "counts": [1]}],
            },
        },
    }
    before = obs.metrics.family_total("rts_elements_total")
    with pytest.raises(ValueError, match="rts_phase_seconds"):
        merge_into(obs.metrics, payload)
    assert obs.metrics.family_total("rts_elements_total") == before
