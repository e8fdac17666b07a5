"""Sort-Tile-Recursive (STR) bulk loading for R\\*/X-trees.

Building an index by repeated insertion is O(N log N) with large constants;
the experiments load 10^4-10^5 points per disk, so the benchmark harness
bulk-loads.  STR packs points into leaves by recursively slicing the space
into slabs (sorting by one dimension per recursion level), then builds the
directory bottom-up by applying the same packing to node centers.

The resulting tree satisfies all structural invariants of the dynamic tree
(checked by the tests) and remains fully updatable afterwards.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.index.node import LeafEntry, Node
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree

__all__ = ["str_chunks", "bulk_load"]


def _require_finite(points: np.ndarray, first_row: int = 0) -> None:
    """Reject NaN / infinite coordinates at ingest: one poisons its
    leaf's MBR (``mindist`` is NaN, never ``<= bound``) and silently
    hides the page's finite points from every query."""
    if not np.isfinite(points).all():
        bad = int(np.flatnonzero(~np.isfinite(points).all(axis=1))[0])
        raise ValueError(
            f"point {first_row + bad} has a non-finite coordinate "
            f"({points[bad].tolist()}); NaN and inf cannot be indexed"
        )


def _split_bounds(start: int, stop: int, parts: int) -> List[Tuple[int, int]]:
    """Cut ``[start, stop)`` into ``parts`` near-equal consecutive ranges,
    the ``(stop - start) % parts`` longer ones first.  The one split
    rule of every STR pass, in memory and streamed."""
    each, extras = divmod(stop - start, parts)
    bounds: List[Tuple[int, int]] = []
    offset = start
    for index in range(parts):
        size = each + 1 if index < extras else each
        bounds.append((offset, offset + size))
        offset += size
    return bounds


def str_chunks(
    points: np.ndarray, capacity: int, start_dim: int = 0
) -> List[np.ndarray]:
    """Partition point indices into STR tiles of at most ``capacity``.

    Returns a list of index arrays; tiles are spatially coherent and sized
    between roughly ``capacity / 2`` and ``capacity``, so a downstream node
    fill factor of >= 40% holds for any ``capacity >= 4``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, d), got shape {points.shape}")
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    num_points, dimension = points.shape

    def recurse(indices: np.ndarray, dim: int) -> List[np.ndarray]:
        if len(indices) <= capacity:
            return [indices]
        pages = math.ceil(len(indices) / capacity)
        order = indices[np.argsort(points[indices, dim], kind="stable")]
        if dim >= dimension - 1:
            # Last dimension: slice into near-equal runs of <= capacity.
            return [
                order[low:high]
                for low, high in _split_bounds(0, len(order), pages)
            ]
        dims_left = dimension - dim
        slabs = math.ceil(pages ** (1.0 / dims_left))
        result: List[np.ndarray] = []
        for low, high in _split_bounds(0, len(order), slabs):
            if high > low:
                result.extend(recurse(order[low:high], dim + 1))
        return result

    return recurse(np.arange(num_points), start_dim % dimension)


def _checked_oids(oids: Sequence[int], count: int) -> np.ndarray:
    """``oids`` as an int64 array of shape ``(count,)``.  A value that
    int64 cannot hold exactly (3.5, 1e19, NaN) is a ``ValueError``,
    never a silent truncation; 3.0 is accepted."""
    given = np.asarray(oids)
    if given.shape != (count,):
        raise ValueError(f"oids must have shape ({count},), got {given.shape}")
    with np.errstate(invalid="ignore"):
        exact = given.astype(np.int64)
    if not (exact == given).all():
        bad = int(np.flatnonzero(exact != given)[0])
        raise ValueError(f"oid {given[bad]} at position {bad} is not int64")
    return exact


def _grow_directory(
    tree: RStarTree, level: List[Node], fill: float, size: int
) -> None:
    """Grow ``tree``'s directory bottom-up over ``level``, its leaves in
    STR tile order: every pass STR-packs the node centers of the level
    below into groups of ``dir_cap * fill``.  The one directory loop of
    every STR loader, in memory and streamed."""
    dir_target = max(4, int(tree.dir_cap * fill))
    while len(level) > 1:
        centers = np.vstack([node.mbr.center for node in level])
        level = [
            Node(is_leaf=False, entries=[level[i] for i in group])
            for group in str_chunks(centers, dir_target)
        ]
    tree.root = level[0]
    tree.size = size


def bulk_load(
    points: np.ndarray,
    oids: Optional[Sequence[int]] = None,
    tree_cls: Type[RStarTree] = XTree,
    fill: float = 0.85,
    **tree_kwargs,
) -> RStarTree:
    """Build a packed tree over ``points`` with STR.

    Parameters
    ----------
    points:
        ``(N, d)`` data array.
    oids:
        Object ids; default ``0..N-1``.
    tree_cls:
        :class:`~repro.index.xtree.XTree` (default) or
        :class:`~repro.index.rstar.RStarTree`.
    fill:
        Target node fill factor; must stay >= 0.8 so the packed nodes
        respect the trees' 40% minimum fill.
    tree_kwargs:
        Forwarded to the tree constructor (page size, capacities, ...).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, d), got shape {points.shape}")
    if not 0.8 <= fill <= 1.0:
        raise ValueError(f"fill must be in [0.8, 1.0], got {fill}")
    _require_finite(points)
    num_points, dimension = points.shape
    if oids is None:
        oids = np.arange(num_points)
    ids = _checked_oids(oids, num_points)
    tree = tree_cls(dimension, **tree_kwargs)
    if num_points == 0:
        return tree
    tiles = str_chunks(points, max(4, int(tree.leaf_cap * fill)))
    leaves = [
        Node(
            is_leaf=True,
            entries=[LeafEntry(points[i], int(ids[i])) for i in tile],
        )
        for tile in tiles
    ]
    _grow_directory(tree, leaves, fill, num_points)
    return tree
