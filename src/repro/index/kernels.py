"""Vectorized traversal kernels over contiguous per-node entry arrays.

Computing ``MBR.mindist`` one child at a time and re-stacking leaf
points on every visit is a Python loop per node.  Every traversal in
the package instead makes single NumPy calls over *cached contiguous
arrays*:

* :func:`child_bounds` — stacked ``(C, d)`` ``low``/``high`` matrices of
  a directory node's children, built lazily on first visit and
  invalidated by :meth:`~repro.index.node.Node.recompute_mbr` /
  :meth:`~repro.index.node.Node.extend_mbr` (every entry mutation in the
  tree code runs through one of the two);
* :func:`leaf_arrays` — the stacked ``(N, d)`` point matrix and the
  ``(N,)`` oids of a leaf, same lifecycle;
* :func:`child_mindists` / :func:`child_minmaxdists` — one call yields
  the pruning bound for *all* children of a node;
* :func:`offer_leaf` — fused leaf kernel: ranking keys, bound filtering,
  and bulk candidate insertion without a per-entry Python loop;
* :func:`child_intersects` / :func:`leaf_window_mask` — batched window
  predicates for range/partial-match queries.

**Exactness contract.**  Every kernel reproduces the per-entry loop
its docstring names bit-for-bit: same neighbor sets, same pruning
decisions, and therefore the same page/disk/cache/
``distance_computations`` counters.  This works because the scalar
reductions in :mod:`repro.index.mbr` / :mod:`repro.index.metrics` use
``np.add.reduce``, whose row-wise 2-D form is bit-identical to the 1-D
case (a BLAS dot product is not).  The loops themselves live in
``tests/scalar_oracle.py``; ``tests/test_kernels_oracle.py`` runs every
traversal and engine twice — once as shipped, once with the loops
swapped in for the kernels — and asserts equality with no
float-tolerance waivers.  Callers therefore reach the kernels through
the module (``kernels.offer_leaf(...)``), never by importing the
functions; see ``docs/performance.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.index.metrics import Euclidean, Metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.index.knn import SearchStats, _CandidateSet
    from repro.index.node import Node

__all__ = [
    "child_bounds",
    "leaf_arrays",
    "child_mindists",
    "child_minmaxdists",
    "child_intersects",
    "leaf_window_mask",
    "offer_leaf",
    "offer_payload",
]

_EUCLIDEAN = Euclidean()

#: Tags distinguishing the two cache layouts sharing ``_kernel_cache``.
_DIR_CACHE = "dir"
_LEAF_CACHE = "leaf"


def child_bounds(node: "Node") -> Tuple[np.ndarray, np.ndarray]:
    """Stacked ``(C, d)`` ``low``/``high`` matrices of a directory node.

    Built lazily on first use and memoized on the node; the tree code
    invalidates the memo whenever the node's entries or any child MBR
    change (both funnel through ``recompute_mbr`` / ``extend_mbr``).
    """
    cache = node._kernel_cache
    count = len(node.entries)
    if (
        cache is not None
        and cache[0] == _DIR_CACHE
        and cache[1] == count
    ):
        return cache[2], cache[3]
    lows = np.vstack([child.mbr.low for child in node.entries])
    highs = np.vstack([child.mbr.high for child in node.entries])
    node._kernel_cache = (_DIR_CACHE, count, lows, highs)
    return lows, highs


def leaf_arrays(node: "Node") -> Tuple[np.ndarray, np.ndarray]:
    """A leaf's stacked ``(N, d)`` point matrix and ``(N,)`` oids
    (memoized, same lifecycle as :func:`child_bounds`).

    The matrix is identical (values and C-contiguous layout) to an
    ``np.vstack`` of the entries' points on every visit, so
    ``metric.point_keys`` returns bit-identical ranking keys.
    """
    cache = node._kernel_cache
    count = len(node.entries)
    if (
        cache is not None
        and cache[0] == _LEAF_CACHE
        and cache[1] == count
    ):
        return cache[2], cache[3]
    points = np.vstack([entry.point for entry in node.entries])
    oids = np.array([entry.oid for entry in node.entries])
    node._kernel_cache = (_LEAF_CACHE, count, points, oids)
    return points, oids


def child_mindists(
    node: "Node", query: np.ndarray, metric: Metric = _EUCLIDEAN
) -> np.ndarray:
    """``metric.mindist`` of the query to every child of ``node``.

    One batched call instead of ``C`` scalar ones; entry ``i`` equals
    ``metric.mindist(node.entries[i].mbr, query)`` bit-for-bit.
    """
    lows, highs = child_bounds(node)
    return metric.mindist_many(lows, highs, query)


def child_minmaxdists(node: "Node", query: np.ndarray) -> np.ndarray:
    """Squared RKV 95 ``minmaxdist`` bound for every child of ``node``.

    Entry ``i`` equals ``node.entries[i].mbr.minmaxdist(query)``
    bit-for-bit (same elementwise operations, same ``add.reduce``).
    """
    lows, highs = child_bounds(node)
    centers = (lows + highs) / 2.0
    near_face = np.where(query <= centers, lows, highs)
    far_face = np.where(query >= centers, lows, highs)
    near_term = (query - near_face) ** 2
    far_term = (query - far_face) ** 2
    total_far = np.add.reduce(far_term, axis=1, keepdims=True)
    return (near_term + (total_far - far_term)).min(axis=1)


def child_intersects(
    node: "Node", low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """Boolean mask: which children of ``node`` intersect ``[low, high]``.

    Entry ``i`` equals ``node.entries[i].mbr.intersects(window)`` (pure
    comparisons — exact by construction).
    """
    lows, highs = child_bounds(node)
    return (lows <= high).all(axis=1) & (low <= highs).all(axis=1)


def leaf_window_mask(
    node: "Node", low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """Boolean mask: which entries of leaf ``node`` lie in ``[low, high]``.

    Entry ``i`` equals ``window.contains_point(entries[i].point)``.
    """
    points, _ = leaf_arrays(node)
    return (low <= points).all(axis=1) & (points <= high).all(axis=1)


def offer_leaf(
    candidates: "_CandidateSet",
    node: "Node",
    query: np.ndarray,
    stats: "SearchStats",
    metric: Metric = _EUCLIDEAN,
) -> None:
    """Fused leaf kernel: :func:`offer_payload` over the leaf's cached
    arrays.

    Equivalent to ``metric.point_keys`` over the stacked points and a
    per-entry ``_CandidateSet.offer`` loop: charges ``len(entries)``
    distance computations and leaves ``candidates`` in exactly the state
    the ordered scalar offers would (see ``_CandidateSet.offer_many``).
    """
    points, oids = leaf_arrays(node)
    offer_payload(candidates, points, oids, query, stats, metric)


def offer_payload(
    candidates: "_CandidateSet",
    points: np.ndarray,
    oids: np.ndarray,
    query: np.ndarray,
    stats: "SearchStats",
    metric: Metric = _EUCLIDEAN,
) -> None:
    """Leaf kernel over a raw page payload (out-of-core batch path).

    The mmap store serves a page as ``(points, oids)`` arrays rather
    than :class:`~repro.index.node.LeafEntry` objects; this scores and
    offers them with the same arithmetic as :func:`offer_leaf` —
    ``metric.point_keys`` over the contiguous point matrix, one
    ``distance_computations`` charge per entry, ordered bulk insertion
    — so in-memory and mmap-backed engines return bit-identical
    results and counters.
    """
    keys = metric.point_keys(points, query)
    stats.distance_computations += len(oids)
    candidates.offer_many(keys, oids, points)
