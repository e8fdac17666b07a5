"""k-nearest-neighbor search over R\\*/X-trees with page-access accounting.

Two traversal strategies from the literature (both discussed in Section 2
of the paper):

* :func:`best_first` / :func:`knn_best_first` — Hjaltason & Samet
  [HS 95]: a global priority queue ordered by ``mindist`` visits
  partitions in increasing distance order; optimal in the number of
  accessed pages for a given tree.  :func:`best_first` is the one such
  loop in the package: it searches a forest of tagged roots and exposes
  three hooks (node visit, prune, page payload) through which the query
  engines of :mod:`repro.parallel` charge disks, feed buffer pools, emit
  trace events and read out-of-core pages; :func:`knn_best_first` is its
  single-tree form.
* :func:`knn_branch_and_bound` — Roussopoulos et al. [RKV 95]: depth-first
  traversal with ``mindist`` ordering and ``minmaxdist``/``mindist``
  pruning; the algorithm the paper ran on the X-tree.

Both return the result list together with :class:`SearchStats`, whose
``page_accesses`` field (supernode-aware) is the cost metric of every
experiment in the paper.  :func:`knn_linear_scan` is the brute-force oracle
used by the tests.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.index import kernels
from repro.index.metrics import Euclidean, Metric
from repro.index.node import Node
from repro.index.rstar import RStarTree

#: Default metric: L2 with squared-distance ranking keys.
_EUCLIDEAN = Euclidean()

__all__ = [
    "Neighbor",
    "SearchStats",
    "best_first",
    "knn_best_first",
    "knn_branch_and_bound",
    "knn_linear_scan",
    "pages_intersecting_radius",
]


@dataclass(frozen=True, order=True)
class Neighbor:
    """One kNN result: Euclidean distance, object id and the point.

    Orders by (distance, oid), so sorted result lists are deterministic.
    """

    distance: float
    oid: int
    point: np.ndarray = field(repr=False, compare=False)


@dataclass
class SearchStats:
    """I/O and CPU counters of one kNN search."""

    node_accesses: int = 0
    leaf_accesses: int = 0
    page_accesses: int = 0
    distance_computations: int = 0

    def record(self, node: Node) -> None:
        """Charge one node visit (supernodes cost ``blocks`` pages)."""
        self.node_accesses += 1
        self.page_accesses += node.blocks
        if node.is_leaf:
            self.leaf_accesses += 1

    def merge(self, other: "SearchStats") -> None:
        self.node_accesses += other.node_accesses
        self.leaf_accesses += other.leaf_accesses
        self.page_accesses += other.page_accesses
        self.distance_computations += other.distance_computations


class _CandidateSet:
    """Bounded max-heap of the best k candidates seen so far."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._heap: List[Tuple[float, int, np.ndarray]] = []

    @property
    def bound(self) -> float:
        """Squared distance of the current k-th candidate (inf if fewer)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def offer(self, sq_distance: float, oid: int, point: np.ndarray) -> None:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-sq_distance, oid, point))
        elif sq_distance < -self._heap[0][0]:
            heapq.heapreplace(self._heap, (-sq_distance, oid, point))

    def offer_many(
        self, keys: np.ndarray, oids: np.ndarray, points: np.ndarray
    ) -> None:
        """Offer a whole page at once: ``(N,)`` keys and oids, ``(N, d)``
        points (vectorized bound filter).

        Exactly equivalent to calling :meth:`offer` per row in order:
        after warming the heap to ``k`` elements, a single NumPy mask
        drops every key that fails the *current* bound — exact because
        the bound only tightens during the loop, so a key rejected
        against the bound at mask time could never be accepted later.
        Survivors are re-checked in order against the live bound.
        """
        heap = self._heap
        start = 0
        total = len(oids)
        while len(heap) < self.k and start < total:
            heapq.heappush(
                heap, (-float(keys[start]), int(oids[start]), points[start])
            )
            start += 1
        if start >= total:
            return
        bound = -heap[0][0]
        for offset in np.nonzero(keys[start:] < bound)[0]:
            index = start + int(offset)
            key = float(keys[index])
            if key < -heap[0][0]:
                heapq.heapreplace(
                    heap, (-key, int(oids[index]), points[index])
                )

    def neighbors(self, metric: Metric = _EUCLIDEAN) -> List[Neighbor]:
        ordered = sorted(
            ((-neg, oid, point) for neg, oid, point in self._heap)
        )
        return [
            Neighbor(float(metric.key_to_distance(key)), oid, point)
            for key, oid, point in ordered
        ]


def best_first(
    roots: Iterable[Tuple[int, Node]],
    query: np.ndarray,
    k: int,
    metric: Metric = _EUCLIDEAN,
    on_node: Optional[Callable[[int, Node], None]] = None,
    on_prune: Optional[Callable[[int, int], None]] = None,
    payload: Optional[
        Callable[[Node], Tuple[np.ndarray, np.ndarray]]
    ] = None,
) -> Tuple[List[Neighbor], SearchStats]:
    """HS 95 best-first kNN over a forest of tagged roots.

    One priority queue of tree nodes keyed by ``mindist`` to the query,
    shared by every root; the search stops once the nearest unvisited
    node is farther than the current k-th candidate, so it reads exactly
    the pages whose MBR intersects the kNN sphere (page-optimal for the
    given trees).  ``roots`` yields ``(tag, root)`` pairs; every node
    inherits its root's tag (the disk of a per-disk tree, ``-1`` for a
    shared directory), which the search never compares.

    Three hooks, all optional:

    * ``on_node(tag, node)`` fires for every visited node in traversal
      order — where callers charge a disk, look a page up in a buffer
      pool and emit ``node_visit`` / ``page_read`` / ``cache_*`` events;
    * ``on_prune(tag, count)`` fires once per child rejected by the
      bound (``count=1``) and once for the final cut (the popped node
      plus everything still queued);
    * ``payload(leaf) -> (points, oids)`` is an out-of-core page source;
      without it a leaf's own entries are scored.
    """
    candidates = _CandidateSet(k)
    stats = SearchStats()
    nodes = leaves = pages = 0  # ``stats.record`` per visit, in locals
    tiebreak = itertools.count()
    # Tiebreaks ascend in root order, so this list is already a heap.
    queue: List[Tuple[float, int, int, Node]] = [
        (0.0, next(tiebreak), tag, root) for tag, root in roots
    ]
    while queue:
        mindist, _, tag, node = heapq.heappop(queue)
        if mindist > candidates.bound:
            if on_prune is not None:
                on_prune(tag, len(queue) + 1)
            break
        nodes += 1
        pages += node.blocks
        if on_node is not None:
            on_node(tag, node)
        if node.is_leaf:
            leaves += 1
            if payload is not None:
                points, oids = payload(node)
                if len(oids):
                    kernels.offer_payload(
                        candidates, points, oids, query, stats, metric
                    )
            elif node.entries:
                kernels.offer_leaf(candidates, node, query, stats, metric)
            continue
        # The bound cannot change while expanding a directory node, so
        # one mask reproduces the per-child test — including which
        # children consume a tiebreak value, in the same order.
        child_keys = kernels.child_mindists(node, query, metric)
        accepted = np.nonzero(child_keys <= candidates.bound)[0]
        for index in accepted:
            heapq.heappush(
                queue,
                (
                    float(child_keys[index]),
                    next(tiebreak),
                    tag,
                    node.entries[index],
                ),
            )
        if on_prune is not None:
            for _ in range(len(child_keys) - len(accepted)):
                on_prune(tag, 1)
    stats.node_accesses, stats.leaf_accesses, stats.page_accesses = (
        nodes, leaves, pages
    )
    return candidates.neighbors(metric), stats


def knn_best_first(
    tree: RStarTree,
    query: Sequence[float],
    k: int = 1,
    metric: Optional[Metric] = None,
    on_node: Optional[Callable[[Node], None]] = None,
) -> Tuple[List[Neighbor], SearchStats]:
    """HS 95 incremental best-first kNN over one tree.

    :func:`best_first` with a single root.  ``metric`` selects the
    distance (default Euclidean); see :mod:`repro.index.metrics`.
    ``on_node`` is invoked for every visited node in traversal order —
    callers that need the page-level access trace hook in here instead
    of re-deriving it from the aggregate :class:`SearchStats`.
    """
    return best_first(
        [(0, tree.root)] if tree.size else [],
        np.asarray(query, dtype=float),
        k,
        metric or _EUCLIDEAN,
        None if on_node is None else lambda _, node: on_node(node),
    )


def knn_branch_and_bound(
    tree: RStarTree,
    query: Sequence[float],
    k: int = 1,
    metric: Optional[Metric] = None,
) -> Tuple[List[Neighbor], SearchStats]:
    """RKV 95 depth-first branch-and-bound kNN.

    Children are visited in ``mindist`` order; subtrees are pruned when
    their ``mindist`` exceeds the current k-th distance, and (for k = 1
    under the default Euclidean metric) when it exceeds the smallest
    sibling ``minmaxdist`` — the "all partition lists may be pruned" rule
    of the paper's Section 2.
    """
    custom_metric = metric is not None
    metric = metric or _EUCLIDEAN
    query = np.asarray(query, dtype=float)
    stats = SearchStats()
    candidates = _CandidateSet(k)
    if tree.size == 0:
        return [], stats

    def visit(node: Node) -> None:
        stats.record(node)
        if node.is_leaf:
            if node.entries:
                kernels.offer_leaf(candidates, node, query, stats, metric)
            return
        child_keys = kernels.child_mindists(node, query, metric)
        branches = sorted(
            (float(child_keys[index]), index, child)
            for index, child in enumerate(node.entries)
        )
        if k == 1 and not custom_metric:
            # MM-pruning: some sibling guarantees a point within its
            # minmaxdist, so children farther than the best guarantee can
            # never host the nearest neighbor.  (The bound is derived for
            # squared Euclidean keys, so it is skipped for custom metrics.)
            best_guarantee = float(
                kernels.child_minmaxdists(node, query).min()
            )
        else:
            best_guarantee = float("inf")
        for mindist, _, child in branches:
            if mindist > candidates.bound or mindist > best_guarantee:
                continue
            visit(child)

    visit(tree.root)
    return candidates.neighbors(metric), stats


def knn_linear_scan(
    points: np.ndarray,
    query: Sequence[float],
    k: int = 1,
    oids: Optional[Sequence[int]] = None,
    metric: Optional[Metric] = None,
) -> List[Neighbor]:
    """Brute-force kNN over a raw point array (testing/baseline oracle)."""
    metric = metric or _EUCLIDEAN
    points = np.asarray(points, dtype=float)
    query = np.asarray(query, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, d), got {points.shape}")
    if oids is None:
        oids = np.arange(len(points))
    keys = metric.point_keys(points, query)
    k = min(k, len(points))
    order = np.argsort(keys, kind="stable")[:k]
    return [
        Neighbor(float(metric.key_to_distance(keys[i])), int(oids[i]),
                 points[i])
        for i in order
    ]


def pages_intersecting_radius(
    tree: RStarTree,
    query: Sequence[float],
    radius: float,
) -> int:
    """Pages any correct NN algorithm must read for the given kNN radius.

    Counts the pages of all nodes whose MBR intersects the sphere of
    (Euclidean) ``radius`` around ``query`` — the paper's "data pages
    intersecting the NN-sphere" (Section 3.1).  The sphere test is
    applied when a child is pushed (one batched ``mindist`` call per
    directory node); children of a non-empty directory always have an
    MBR, so only the root needs the ``None`` guard.
    """
    query = np.asarray(query, dtype=float)
    sq_radius = radius * radius
    root = tree.root
    if root.mbr is None or root.mbr.mindist(query) > sq_radius:
        return 0
    pages = root.blocks
    stack: List[Node] = [] if root.is_leaf else [root]
    while stack:
        node = stack.pop()
        child_keys = kernels.child_mindists(node, query)
        for index in np.nonzero(child_keys <= sq_radius)[0]:
            child = node.entries[index]
            pages += child.blocks
            if not child.is_leaf:
                stack.append(child)
    return pages
