"""Exact serialization of trees and declustered stores.

A database index must survive a restart.  :func:`save_tree` /
:func:`load_tree` serialize an R\\*/X-tree *exactly* — the same nodes, the
same entry order, the same supernode widths — into a single compressed
``.npz`` file, so page-level experiment numbers are bit-for-bit
reproducible after a round trip.  :func:`save_paged_store` /
:func:`load_paged_store` additionally persist the page-to-disk map of a
:class:`~repro.parallel.paged.PagedStore` (as a frozen assignment, since
arbitrary declusterers are code, not data).

Format: flat numpy arrays (one element per node / per point) plus a JSON
header with the tree's scalar parameters.  Nodes are numbered in
depth-first pre-order; MBRs are recomputed on load (they are derived
state).

Store-level metadata (disk count, declustering scheme name, cache
config) travels in the same JSON header under an explicit
``store_format_version`` field; loading a file written by a different
revision raises :class:`StoreFormatError` instead of misreading it.
The out-of-core variant (:mod:`repro.storage`) shares this header codec
so ``save_paged_store``/``save_mmap_store`` round-trip identically.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.index.node import LeafEntry, Node
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.parallel.cache import CacheConfig
from repro.parallel.paged import PagedStore

__all__ = [
    "save_tree",
    "load_tree",
    "save_paged_store",
    "load_paged_store",
    "FrozenAssignment",
    "StoreFormatError",
]

_FORMAT_VERSION = 1

#: Revision of the store-level header (disk count, scheme, cache).
_STORE_FORMAT_VERSION = 1


class StoreFormatError(ValueError):
    """A persisted tree/store file is from an incompatible format
    revision."""


def _flatten(tree: RStarTree):
    """Walk the tree in pre-order, producing flat per-node arrays."""
    node_is_leaf: List[bool] = []
    node_blocks: List[int] = []
    first_child: List[int] = []
    child_count: List[int] = []
    history_nodes: List[int] = []
    history_axes: List[int] = []
    points: List[np.ndarray] = []
    oids: List[int] = []
    point_leaf: List[int] = []

    order: List[Node] = []

    def visit(node: Node) -> int:
        node_id = len(order)
        order.append(node)
        node_is_leaf.append(node.is_leaf)
        node_blocks.append(node.blocks)
        first_child.append(-1)
        child_count.append(0)
        for axis in sorted(node.split_history):
            history_nodes.append(node_id)
            history_axes.append(axis)
        if node.is_leaf:
            for entry in node.entries:
                points.append(entry.point)
                oids.append(entry.oid)
                point_leaf.append(node_id)
        else:
            child_ids = [visit(child) for child in node.entries]
            if child_ids:
                first_child[node_id] = child_ids[0]
                child_count[node_id] = len(child_ids)
        return node_id

    visit(tree.root)
    return {
        "node_is_leaf": np.array(node_is_leaf, dtype=bool),
        "node_blocks": np.array(node_blocks, dtype=np.int64),
        "first_child": np.array(first_child, dtype=np.int64),
        "child_count": np.array(child_count, dtype=np.int64),
        "history_nodes": np.array(history_nodes, dtype=np.int64),
        "history_axes": np.array(history_axes, dtype=np.int64),
        "points": (
            np.vstack(points) if points
            else np.zeros((0, tree.dimension))
        ),
        "oids": np.array(oids, dtype=np.int64),
        "point_leaf": np.array(point_leaf, dtype=np.int64),
    }


def _tree_header(tree: RStarTree) -> dict:
    header = {
        "format_version": _FORMAT_VERSION,
        "tree_class": type(tree).__name__,
        "dimension": tree.dimension,
        "page_bytes": tree.page_bytes,
        "leaf_cap": tree.leaf_cap,
        "dir_cap": tree.dir_cap,
        "min_fill": tree.min_fill,
        "reinsert_fraction": tree.reinsert_fraction,
        "size": tree.size,
    }
    if isinstance(tree, XTree):
        header["max_overlap"] = tree.max_overlap
        header["max_blocks"] = tree.max_blocks
    return header


def save_tree(tree: RStarTree, path: Union[str, os.PathLike]) -> None:
    """Serialize a tree into a compressed ``.npz`` file."""
    arrays = _flatten(tree)
    arrays["header"] = np.array(json.dumps(_tree_header(tree)))
    np.savez_compressed(path, **arrays)


def _check_tree_version(header: dict) -> None:
    """Fail fast (and clearly) on a tree file from another revision."""
    version = header.get("format_version")
    if version != _FORMAT_VERSION:
        raise StoreFormatError(
            f"tree file uses format version {version!r}; this build reads "
            f"version {_FORMAT_VERSION} — regenerate the file with the "
            f"current code"
        )


def _rebuild_skeleton(data, header: dict) -> Tuple[RStarTree, List[Node]]:
    """Rebuild the node topology (no leaf entries, no MBRs) from arrays.

    Shared by :func:`_rebuild_tree` (which then attaches the points and
    recomputes MBRs) and the out-of-core loader in
    :mod:`repro.storage.mmap_store` (which restores leaf MBRs from
    explicit bound arrays instead — its leaves own no entries).
    Returns the empty tree shell plus the nodes in pre-order.
    """
    common = dict(
        page_bytes=header["page_bytes"],
        leaf_cap=header["leaf_cap"],
        dir_cap=header["dir_cap"],
        min_fill=header["min_fill"],
        reinsert_fraction=header["reinsert_fraction"],
    )
    if header["tree_class"] == "XTree":
        tree: RStarTree = XTree(
            header["dimension"],
            max_overlap=header["max_overlap"],
            max_blocks=header["max_blocks"],
            **common,
        )
    elif header["tree_class"] == "RStarTree":
        tree = RStarTree(header["dimension"], **common)
    else:
        raise ValueError(f"unknown tree class {header['tree_class']!r}")

    node_is_leaf = data["node_is_leaf"]
    node_blocks = data["node_blocks"]
    first_child = data["first_child"]
    child_count = data["child_count"]

    nodes = [
        Node(is_leaf=bool(is_leaf), blocks=int(blocks))
        for is_leaf, blocks in zip(node_is_leaf, node_blocks)
    ]
    for node_id, axis in zip(data["history_nodes"], data["history_axes"]):
        nodes[int(node_id)].split_history.add(int(axis))
    # Children are contiguous in pre-order only per sibling group; we
    # recorded (first_child, count), and pre-order guarantees the k-th
    # sibling's id is first_child advanced past the (k-1) preceding
    # subtrees — recover via subtree sizes.
    subtree_size = np.ones(len(nodes), dtype=np.int64)
    for node_id in range(len(nodes) - 1, -1, -1):
        if node_is_leaf[node_id]:
            continue
        child = int(first_child[node_id])
        for _ in range(int(child_count[node_id])):
            nodes[node_id].entries.append(nodes[child])
            subtree_size[node_id] += subtree_size[child]
            child += int(subtree_size[child])
    tree.root = nodes[0]
    return tree, nodes


def _rebuild_tree(data) -> RStarTree:
    header = json.loads(str(data["header"]))
    _check_tree_version(header)
    tree, nodes = _rebuild_skeleton(data, header)
    points = data["points"]
    oids = data["oids"]
    point_leaf = data["point_leaf"]
    for point, oid, leaf_id in zip(points, oids, point_leaf):
        nodes[int(leaf_id)].entries.append(LeafEntry(point, int(oid)))
    for node in reversed(nodes):  # children before parents in pre-order
        node.recompute_mbr()
    tree.size = len(points)
    return tree


def load_tree(path: Union[str, os.PathLike]) -> RStarTree:
    """Load a tree previously written by :func:`save_tree`."""
    with np.load(path, allow_pickle=False) as data:
        return _rebuild_tree(data)


class FrozenAssignment:
    """A page-to-disk map restored from disk (a fixed table, not code).

    ``name`` preserves the declustering scheme the table was produced
    with (round-tripped through the store header), so reports and
    ``--scheme``-keyed tooling keep working on reloaded stores.
    """

    def __init__(self, page_disks: np.ndarray, name: str = "frozen"):
        self.page_disks = np.asarray(page_disks, dtype=np.int64)
        self.name = name

    def __call__(self, centers: np.ndarray) -> np.ndarray:
        if len(centers) != len(self.page_disks):
            raise ValueError(
                f"store has {len(centers)} pages but the frozen assignment "
                f"covers {len(self.page_disks)}; re-decluster after updates"
            )
        return self.page_disks.copy()


def _encode_cache(config: Optional[CacheConfig]) -> Optional[Dict]:
    """Cache config as plain JSON (no pickling) for the store header."""
    if config is None:
        return None
    return {
        "capacity_pages": config.capacity_pages,
        "capacity_bytes": config.capacity_bytes,
        "policy": config.policy,
    }


def _decode_cache(data: Optional[Dict]) -> Optional[CacheConfig]:
    """Inverse of :func:`_encode_cache`."""
    if data is None:
        return None
    return CacheConfig(
        capacity_pages=data["capacity_pages"],
        capacity_bytes=data["capacity_bytes"],
        policy=data["policy"],
    )


def _store_header(
    tree: RStarTree, num_disks: int, scheme: str, cache: Optional[CacheConfig]
) -> Dict:
    """Tree header plus the store-level fields every store format
    shares: disk count, declustering scheme name, and cache config —
    the one header builder of every store writer."""
    header = _tree_header(tree)
    header["store_format_version"] = _STORE_FORMAT_VERSION
    header["num_disks"] = num_disks
    header["scheme"] = scheme
    header["cache"] = _encode_cache(cache)
    return header


def _check_store_version(header: Dict, source: str) -> None:
    """Fail fast (and clearly) on a store header from another revision."""
    version = header.get("store_format_version")
    if version != _STORE_FORMAT_VERSION:
        raise StoreFormatError(
            f"{source} uses store format version {version!r}; this build "
            f"reads version {_STORE_FORMAT_VERSION} — regenerate the "
            f"store with the current code"
        )


def save_paged_store(
    store: PagedStore, path: Union[str, os.PathLike]
) -> None:
    """Serialize a PagedStore (tree + page map + scheme + cache config).

    The scheme name and cache config ride in the JSON store header (see
    :func:`_store_header`) — plain data, no pickled kwargs — under an
    explicit ``store_format_version`` field.
    """
    arrays = _flatten(store.tree)
    arrays["header"] = np.array(json.dumps(_store_header(
        store.tree, store.num_disks, store.scheme, store.cache_config
    )))
    arrays["page_disks"] = np.asarray(store.page_disks, dtype=np.int64)
    np.savez_compressed(path, **arrays)


def load_paged_store(path: Union[str, os.PathLike]) -> PagedStore:
    """Load a PagedStore written by :func:`save_paged_store`.

    The page-to-disk assignment is restored as a
    :class:`FrozenAssignment` carrying the original scheme name; to
    re-decluster after structural updates, build a fresh
    :class:`~repro.parallel.paged.PagedStore` with a real declusterer.
    Raises :class:`StoreFormatError` on a format-version mismatch.
    """
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        _check_store_version(header, f"paged store {os.fspath(path)!r}")
        tree = _rebuild_tree(data)
        page_disks = data["page_disks"]
        return PagedStore(
            tree=tree,
            declusterer=FrozenAssignment(
                page_disks, name=header.get("scheme", "frozen")
            ),
            num_disks=int(header["num_disks"]),
            page_bytes=header["page_bytes"],
            cache_config=_decode_cache(header.get("cache")),
        )
