"""Incremental nearest-neighbor ranking (full HS 95 algorithm).

The Hjaltason & Samet algorithm is naturally *incremental*: a single
priority queue interleaves tree nodes (keyed by ``mindist``) and data
points (keyed by their exact distance); popping the queue yields the next
nearest object without knowing ``k`` in advance.  The paper's Section 2
discusses this "ranking" formulation; it matters in practice whenever the
caller filters results and cannot bound ``k`` up front.

:func:`incremental_nearest` exposes it as a generator; consuming ``k``
items reads exactly the pages a ``k``-NN query would read.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.index import kernels
from repro.index.knn import _EUCLIDEAN, Neighbor, SearchStats
from repro.index.node import Node
from repro.index.rstar import RStarTree

__all__ = ["incremental_nearest"]

#: Queue item kinds; points sort before nodes at equal distance so an
#: object is reported before a page that could only contain ties.
_POINT, _NODE = 0, 1


def incremental_nearest(
    tree: RStarTree,
    query: Sequence[float],
    stats: Optional[SearchStats] = None,
) -> Iterator[Neighbor]:
    """Yield the tree's points in increasing distance from ``query``.

    Parameters
    ----------
    tree:
        Any R\\*/X-tree.
    query:
        Query point of the tree's dimensionality.
    stats:
        Optional :class:`~repro.index.knn.SearchStats` that accumulates
        page accesses as the iterator is consumed (the cost is incurred
        lazily — stopping early stops the I/O).

    Yields
    ------
    Neighbor
        Next-nearest point, with exact Euclidean distance.
    """
    query = np.asarray(query, dtype=float)
    if stats is None:
        stats = SearchStats()
    if tree.size == 0:
        return
    tiebreak = itertools.count()
    # Heap entries: (sq_distance, kind, tiebreak, payload)
    heap: list = [(0.0, _NODE, next(tiebreak), tree.root)]
    while heap:
        sq_distance, kind, _, payload = heapq.heappop(heap)
        if kind == _POINT:
            entry = payload
            yield Neighbor(float(np.sqrt(sq_distance)), entry.oid,
                           entry.point)
            continue
        node: Node = payload
        stats.record(node)
        if node.is_leaf:
            if node.entries:
                sq = _EUCLIDEAN.point_keys(kernels.leaf_arrays(node)[0], query)
                stats.distance_computations += len(node.entries)
                for distance, entry in zip(sq, node.entries):
                    heapq.heappush(
                        heap,
                        (float(distance), _POINT, next(tiebreak), entry),
                    )
        else:
            child_keys = kernels.child_mindists(node, query)
            for mindist, child in zip(child_keys, node.entries):
                heapq.heappush(
                    heap, (float(mindist), _NODE, next(tiebreak), child)
                )
