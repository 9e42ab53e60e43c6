"""Hypothesis properties of canonical node sets (the Section 4 invariants).

For any endpoint set and any query range over those endpoints, the
canonical node set must (1) tile the range exactly with disjoint
jurisdictions, (2) be minimal, and (3) contain at most two nodes per tree
level.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.endpoint_tree import EndpointTree
from repro.core.geometry import PLUS_INFINITY, Interval, Rect


def build(keys):
    """The one-tree forest of a one-dimensional endpoint tree over sorted
    distinct boundary keys (one ``[key, +inf)`` query per key)."""
    return EndpointTree([Rect([Interval(k, PLUS_INFINITY)]) for k in keys], 1).forests[0]

keys_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 1)),
    min_size=2,
    max_size=50,
    unique=True,
).map(lambda ks: sorted((float(v), b) for v, b in ks))


@settings(max_examples=250, deadline=None)
@given(keys=keys_strategy, data=st.data())
def test_canonical_tiles_range_exactly(keys, data):
    tree = build(keys)
    i = data.draw(st.integers(0, len(keys) - 2))
    j = data.draw(st.integers(i + 1, len(keys) - 1))
    lo, hi = keys[i], keys[j]
    regions = sorted(tree.jurisdiction(u) for u in tree.canonical(0, lo, hi))
    assert regions[0][0] == lo
    assert regions[-1][1] == hi
    for (_, a_hi), (b_lo, _) in zip(regions, regions[1:]):
        assert a_hi == b_lo  # disjoint and gap-free


@settings(max_examples=250, deadline=None)
@given(keys=keys_strategy, data=st.data())
def test_canonical_is_minimal(keys, data):
    """No two reported nodes may be siblings (else their parent would do)."""
    tree = build(keys)
    i = data.draw(st.integers(0, len(keys) - 2))
    j = data.draw(st.integers(i + 1, len(keys) - 1))
    chosen = set(tree.canonical(0, keys[i], keys[j]))
    sk = tree.skels[0]
    for u in range(tree.n):
        if sk.left[u] >= 0:
            assert not (int(sk.left[u]) in chosen and int(sk.right[u]) in chosen), (
                "sibling pair reported; parent should have been used"
            )


@settings(max_examples=250, deadline=None)
@given(keys=keys_strategy, data=st.data())
def test_canonical_size_bound(keys, data):
    tree = build(keys)
    i = data.draw(st.integers(0, len(keys) - 2))
    j = data.draw(st.integers(i + 1, len(keys) - 1))
    nodes = tree.canonical(0, keys[i], keys[j])
    height = math.ceil(math.log2(len(keys))) + 1
    assert len(nodes) <= 2 * height


@settings(max_examples=100, deadline=None)
@given(keys=keys_strategy, data=st.data())
def test_unbounded_range_to_infinity(keys, data):
    tree = build(keys)
    i = data.draw(st.integers(0, len(keys) - 1))
    regions = sorted(tree.jurisdiction(u) for u in tree.canonical(0, keys[i], PLUS_INFINITY))
    assert regions[0][0] == keys[i]
    assert regions[-1][1] == PLUS_INFINITY
    for (_, a_hi), (b_lo, _) in zip(regions, regions[1:]):
        assert a_hi == b_lo
