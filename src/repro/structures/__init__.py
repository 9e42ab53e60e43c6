"""From-scratch search-structure substrates.

The heap arena backs the DT engine's per-node sigma heaps; the
interval tree, segment tree, Seg-Intv layering and R-tree back the
stabbing baselines of the paper's evaluation.
"""

from .heap import HeapArena
from .interval_tree import CenteredIntervalTree, IntervalItem
from .rtree import RTree, RTreeItem
from .seg_intv_tree import SegIntvItem, SegIntvTree
from .segment_tree import SegmentItem, SegmentTree

__all__ = [
    "CenteredIntervalTree",
    "HeapArena",
    "IntervalItem",
    "RTree",
    "RTreeItem",
    "SegIntvItem",
    "SegIntvTree",
    "SegmentItem",
    "SegmentTree",
]
