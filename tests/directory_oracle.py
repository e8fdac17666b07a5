"""Node-by-node reference for :func:`repro.index.bulk._str_directory`.

This is the directory build the STR loaders used before the flat-array
builder: one :class:`Node` per leaf with its MBR, the ``_grow_directory``
loop (every pass STR-packs the node centers of the level below, and a
directory node's MBR is its children's union), then the ``_flatten``
pre-order walk.  It is slow (Python objects per node) and obviously
right, which is what a test-side oracle should be.
"""

import numpy as np

from repro.index.bulk import str_chunks
from repro.index.mbr import MBR
from repro.index.node import Node


def grow_directory(low, high, target):
    """The root of the directory STR-grown over leaf bounds in tile
    order, and each leaf's tile (by node identity)."""
    level = []
    tile_of = {}
    for tile, (lo, hi) in enumerate(zip(low, high)):
        leaf = Node(is_leaf=True)
        leaf.mbr = MBR(lo, hi)
        tile_of[id(leaf)] = tile
        level.append(leaf)
    if not level:
        return Node(is_leaf=True), tile_of
    while len(level) > 1:
        centers = np.vstack([node.mbr.center for node in level])
        level = [
            Node(is_leaf=False, entries=[level[i] for i in group])
            for group in str_chunks(centers, target)
        ]
    return level[0], tile_of


def flatten(root, tile_of):
    """``_flatten``'s pre-order walk: the four per-node arrays, and the
    tile of every leaf in pre-order."""
    node_is_leaf, node_blocks, first_child, child_count = [], [], [], []
    leaf_tiles = []

    def visit(node):
        node_id = len(node_is_leaf)
        node_is_leaf.append(node.is_leaf)
        node_blocks.append(node.blocks)
        first_child.append(-1)
        child_count.append(0)
        if node.is_leaf:
            if id(node) in tile_of:
                leaf_tiles.append(tile_of[id(node)])
        else:
            child_ids = [visit(child) for child in node.entries]
            first_child[node_id] = child_ids[0]
            child_count[node_id] = len(child_ids)
        return node_id

    visit(root)
    return {
        "node_is_leaf": np.array(node_is_leaf, dtype=bool),
        "node_blocks": np.array(node_blocks, dtype=np.int64),
        "first_child": np.array(first_child, dtype=np.int64),
        "child_count": np.array(child_count, dtype=np.int64),
    }, np.array(leaf_tiles, dtype=np.int64)


def str_directory(low, high, target):
    """What ``_str_directory`` returns, the old way (the four arrays the
    walk produces, and the leaves' tiles in pre-order); also the root."""
    root, tile_of = grow_directory(low, high, target)
    arrays, leaf_tiles = flatten(root, tile_of)
    return arrays, leaf_tiles, root
