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
from typing import Dict, List, Optional, Union

import numpy as np

from repro.index.bulk import _materialize
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


def _tree_shell(header: dict) -> RStarTree:
    """An empty tree with the class and parameters ``header`` records."""
    common = dict(
        page_bytes=header["page_bytes"],
        leaf_cap=header["leaf_cap"],
        dir_cap=header["dir_cap"],
        min_fill=header["min_fill"],
        reinsert_fraction=header["reinsert_fraction"],
    )
    if header["tree_class"] == "XTree":
        return XTree(
            header["dimension"],
            max_overlap=header["max_overlap"],
            max_blocks=header["max_blocks"],
            **common,
        )
    if header["tree_class"] == "RStarTree":
        return RStarTree(header["dimension"], **common)
    raise ValueError(f"unknown tree class {header['tree_class']!r}")


def _rebuild_tree(data) -> RStarTree:
    """The tree of a :func:`_flatten` file, entries and all; leaf MBRs
    are the tight bounds of their points."""
    header = json.loads(str(data["header"]))
    _check_tree_version(header)
    tree = _tree_shell(header)
    points = data["points"]
    if not len(points):
        return tree
    oids = data["oids"].tolist()
    # Points are stored leaf by leaf in pre-order; every leaf of a
    # non-empty tree holds at least one.
    starts = np.searchsorted(
        data["point_leaf"], np.flatnonzero(data["node_is_leaf"])
    )
    stops = np.append(starts[1:], len(points))
    entries = [
        [LeafEntry(points[row], oids[row]) for row in range(start, stop)]
        for start, stop in zip(starts.tolist(), stops.tolist())
    ]
    low, high = (f.reduceat(points, starts) for f in (np.minimum, np.maximum))
    _materialize(tree, data, low, high, entries)
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
