"""Sort-Tile-Recursive (STR) bulk loading for R\\*/X-trees.

Building an index by repeated insertion is O(N log N) with large constants;
the experiments load 10^4-10^5 points per disk, so the benchmark harness
bulk-loads.  STR packs points into leaves by recursively slicing the space
into slabs (sorting by one dimension per recursion level), then builds the
directory bottom-up by applying the same packing to node centers — as
flat arrays (:func:`_str_directory`), which :func:`_materialize` turns
into nodes.

The resulting tree satisfies all structural invariants of the dynamic tree
(checked by the tests) and remains fully updatable afterwards.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

from repro.index.mbr import MBR
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


#: A tree's pre-order directory arrays, in ``tree.npz`` order: per node,
#: then the ``(node, axis)`` pairs of the split histories.
DIRECTORY_ARRAYS = (
    "node_is_leaf", "node_blocks", "first_child", "child_count",
    "history_nodes", "history_axes",
)


def _str_directory(
    low: np.ndarray, high: np.ndarray, target: int
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """STR-grow a directory over leaf bounds ``low`` / ``high`` (tile
    order) as flat arrays: each pass packs the centers of the level
    below into groups of ``target``, bounded by their members' union.
    Returns the :data:`DIRECTORY_ARRAYS` and the tile of every leaf in
    pre-order (store order).  The one directory builder of every STR
    loader."""
    leaves = len(low)
    # Per pass: the level below in group order, group sizes and starts.
    passes: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while len(low) > 1:
        groups = str_chunks((low + high) / 2.0, target)
        order = np.concatenate(groups)
        sizes = np.array([len(group) for group in groups])
        starts = np.cumsum(sizes) - sizes
        low = np.minimum.reduceat(low[order], starts)
        high = np.maximum.reduceat(high[order], starts)
        passes.append((order, sizes, starts))
    spans = [np.ones(leaves, dtype=np.int64)]  # subtree sizes, bottom-up
    for order, _, starts in passes:
        spans.append(1 + np.add.reduceat(spans[-1][order], starts))
    total = max(1, int(spans[-1].sum()))  # an empty tree: one root leaf
    first_child = np.full(total, -1, dtype=np.int64)
    child_count = np.zeros(total, dtype=np.int64)
    # Pre-order ids, top-down: a child comes right after its parent and
    # the subtrees of its earlier siblings.
    ids = np.zeros(min(1, leaves), dtype=np.int64)
    for (order, sizes, starts), below in zip(passes[::-1], spans[-2::-1]):
        first_child[ids], child_count[ids] = ids + 1, sizes
        before = np.cumsum(below[order]) - below[order]
        before -= np.repeat(before[starts], sizes)
        ids_below = np.empty(len(order), dtype=np.int64)
        ids_below[order] = np.repeat(ids, sizes) + 1 + before
        ids = ids_below
    node_is_leaf = np.zeros(total, dtype=bool)
    node_is_leaf[ids if leaves else 0] = True
    arrays = {
        "node_is_leaf": node_is_leaf,
        "node_blocks": np.ones(total, dtype=np.int64),
        "first_child": first_child,
        "child_count": child_count,
        "history_nodes": np.zeros(0, dtype=np.int64),
        "history_axes": np.zeros(0, dtype=np.int64),
    }
    return arrays, np.argsort(ids)


def _materialize(
    tree: RStarTree,
    arrays: Mapping[str, np.ndarray],
    leaf_low: np.ndarray,
    leaf_high: np.ndarray,
    entries: Optional[Sequence[List[LeafEntry]]] = None,
) -> List[Node]:
    """Hang the pre-order :data:`DIRECTORY_ARRAYS` under ``tree.root``
    as :class:`Node` objects: leaf ``i`` (store order) bounded by
    ``leaf_low[i]`` / ``leaf_high[i]``, holding ``entries[i]`` when
    given; directory MBRs are unions.  Returns the leaves in store
    order (none without leaf bounds: an empty tree keeps its root).  The
    one arrays-to-nodes step, for bulk loads, tree files and stores."""
    if not len(leaf_low):
        return []
    nodes = [
        Node(is_leaf=is_leaf, blocks=blocks)
        for is_leaf, blocks in zip(
            arrays["node_is_leaf"].tolist(), arrays["node_blocks"].tolist()
        )
    ]
    for node_id, axis in zip(
        arrays["history_nodes"].tolist(), arrays["history_axes"].tolist()
    ):
        nodes[node_id].split_history.add(axis)
    leaves = [node for node in nodes if node.is_leaf]
    for index, (leaf, low, high) in enumerate(zip(leaves, leaf_low, leaf_high)):
        leaf.mbr = MBR(low, high)
        if entries is not None:
            leaf.entries = entries[index]
    pending = zip(nodes, arrays["child_count"].tolist())

    def subtree() -> Node:
        # Pre-order: a node, then each of its children's subtrees.
        node, count = next(pending)
        if count:
            node.entries = [subtree() for _ in range(count)]
            node.recompute_mbr()
        return node

    tree.root = subtree()
    return leaves


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
    starts = np.cumsum([0] + [len(tile) for tile in tiles[:-1]])
    rows = points[np.concatenate(tiles)]
    low, high = np.minimum.reduceat(rows, starts), np.maximum.reduceat(rows, starts)
    arrays, leaf_tiles = _str_directory(
        low, high, max(4, int(tree.dir_cap * fill))
    )
    oids_list = ids.tolist()
    entries = [
        [LeafEntry(points[i], oids_list[i]) for i in tiles[tile].tolist()]
        for tile in leaf_tiles.tolist()
    ]
    _materialize(tree, arrays, low[leaf_tiles], high[leaf_tiles], entries)
    tree.size = num_points
    return tree
