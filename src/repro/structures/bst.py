"""Balanced BST skeleton construction shared by tree structures.

The segment trees of the stabbing baselines are *static* balanced binary
trees whose leaves partition the line into elementary intervals
``[k_i, k_{i+1})`` over a sorted set of boundary keys.  This module
provides their generic pointer builder; each structure supplies its own
node class (anything exposing ``lo``/``hi``/``left``/``right``
attributes and a ``(lo, hi)`` constructor).  The endpoint tree of
Section 4 has the same shape but builds it as flat arrays
(:class:`repro.core.endpoint_tree.Skeleton`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

from ..core.geometry import PLUS_INFINITY, BoundaryKey

N = TypeVar("N")


def build_skeleton(
    keys: Sequence[BoundaryKey],
    node_cls: Callable[[BoundaryKey, BoundaryKey], N],
    rightmost_hi: BoundaryKey = PLUS_INFINITY,
) -> Optional[N]:
    """Build a perfectly balanced BST over sorted distinct boundary keys.

    Leaf ``i`` receives jurisdiction ``[keys[i], keys[i+1])``; the last
    leaf extends to ``rightmost_hi`` (``+inf`` by default).  Internal nodes
    take the union of their children's jurisdictions.  Returns None for an
    empty key sequence.  The resulting tree has height ``ceil(log2 K)``.
    """
    n = len(keys)
    if n == 0:
        return None

    def rec(i: int, j: int) -> N:
        if j - i == 1:
            hi = keys[i + 1] if i + 1 < n else rightmost_hi
            return node_cls(keys[i], hi)
        mid = (i + j) // 2
        left = rec(i, mid)
        right = rec(mid, j)
        node = node_cls(left.lo, right.hi)
        node.left = left
        node.right = right
        return node

    return rec(0, n)


def descend_path(root, key: BoundaryKey):
    """Yield the root-to-leaf path of nodes whose jurisdiction holds ``key``.

    Yields nothing when ``key`` lies below the leftmost jurisdiction.
    Nodes must expose ``lo``/``hi``/``left``/``right``; the generator works
    for every skeleton produced by :func:`build_skeleton`.
    """
    node = root
    if node is None or key < node.lo or key >= node.hi:
        return
    while True:
        yield node
        if node.left is None:
            return
        node = node.left if key < node.left.hi else node.right
