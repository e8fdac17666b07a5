"""Tree node and entry structures shared by the R\\*-tree and X-tree.

A node corresponds to one disk page (the paper uses 4 KB pages).  X-tree
*supernodes* span several contiguous pages; their width in pages is the
node's ``blocks`` attribute and is charged accordingly by the I/O
accounting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Union

import numpy as np

from repro.index.mbr import MBR

__all__ = ["LeafEntry", "Node", "leaf_capacity", "directory_capacity"]

#: Bytes per disk page, as in the paper's experiments.
DEFAULT_PAGE_BYTES = 4096

#: Bytes per float coordinate on disk.
_COORD_BYTES = 8
#: Bytes for an object identifier / child pointer.
_POINTER_BYTES = 8


def leaf_capacity(dimension: int, page_bytes: int = DEFAULT_PAGE_BYTES) -> int:
    """Number of point entries fitting one leaf page.

    A leaf entry stores ``d`` coordinates plus an object id.
    """
    entry_bytes = dimension * _COORD_BYTES + _POINTER_BYTES
    return max(4, page_bytes // entry_bytes)


def directory_capacity(
    dimension: int, page_bytes: int = DEFAULT_PAGE_BYTES
) -> int:
    """Number of child entries fitting one directory page.

    A directory entry stores an MBR (2d coordinates) plus a child pointer.
    """
    entry_bytes = 2 * dimension * _COORD_BYTES + _POINTER_BYTES
    return max(4, page_bytes // entry_bytes)


class LeafEntry:
    """A data point plus its object identifier."""

    __slots__ = ("point", "oid")

    def __init__(self, point: np.ndarray, oid: int):
        self.point = np.asarray(point, dtype=float)
        self.oid = oid

    @property
    def mbr(self) -> MBR:
        """Degenerate MBR of the point (lets split code treat entries
        uniformly)."""
        return MBR.from_point(self.point)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LeafEntry(oid={self.oid}, point={self.point.tolist()})"


class Node:
    """One page (or supernode) of the tree.

    Parameters
    ----------
    is_leaf:
        Leaves hold :class:`LeafEntry` objects; directory nodes hold child
        :class:`Node` objects.
    blocks:
        Width of the node in pages; ``> 1`` marks an X-tree supernode.
    split_history:
        Dimensions along which this subtree has been split — consulted by
        the X-tree's overlap-minimal split.
    """

    __slots__ = (
        "is_leaf", "entries", "mbr", "blocks", "split_history", "page",
        "_kernel_cache",
    )

    def __init__(
        self,
        is_leaf: bool,
        entries: Optional[List[Union[LeafEntry, "Node"]]] = None,
        blocks: int = 1,
        split_history: Optional[Set[int]] = None,
    ):
        self.is_leaf = is_leaf
        self.entries: List[Union[LeafEntry, Node]] = list(entries or [])
        self.blocks = blocks
        self.split_history: Set[int] = set(split_history or ())
        #: A data page's row in its out-of-core store's arrays (-1: none).
        self.page = -1
        self.mbr: Optional[MBR] = None
        #: Lazily built contiguous entry arrays (see
        #: :mod:`repro.index.kernels`); dropped whenever the node's
        #: geometry changes.  Every entry mutation in the tree code runs
        #: through :meth:`recompute_mbr` or :meth:`extend_mbr`, so those
        #: two methods are the invalidation points.
        self._kernel_cache: Optional[tuple] = None
        if self.entries:
            self.recompute_mbr()

    # ---------------------------------------------------------- geometry

    def recompute_mbr(self) -> None:
        """Recompute the tight MBR from the current entries."""
        self._kernel_cache = None
        if not self.entries:
            self.mbr = None
            return
        if self.is_leaf:
            points = np.vstack([entry.point for entry in self.entries])
            self.mbr = MBR.from_points(points)
        else:
            self.mbr = MBR.union_of(child.mbr for child in self.entries)

    def extend_mbr(self, entry_mbr: MBR) -> None:
        """Grow the node MBR to cover a newly added entry."""
        self._kernel_cache = None
        if self.mbr is None:
            self.mbr = entry_mbr.copy()
        else:
            self.mbr.enlarge(entry_mbr)

    # --------------------------------------------------------- structure

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: Union[LeafEntry, "Node"]) -> None:
        self.entries.append(entry)
        self.extend_mbr(entry.mbr)

    def iter_leaves(self) -> Sequence["Node"]:
        """All leaf nodes of the subtree, left to right."""
        if self.is_leaf:
            return [self]
        leaves: List[Node] = []
        stack: List[Node] = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(reversed(node.entries))
        return leaves

    def height(self) -> int:
        """Levels below (and including) this node; a leaf has height 1."""
        node, levels = self, 1
        while not node.is_leaf:
            node = node.entries[0]
            levels += 1
        return levels

    def count_points(self) -> int:
        """Number of data points stored in the subtree."""
        if self.is_leaf:
            return len(self.entries)
        return sum(child.count_points() for child in self.entries)

    def count_pages(self) -> int:
        """Disk pages occupied by the subtree (supernodes count as
        ``blocks`` pages)."""
        if self.is_leaf:
            return self.blocks
        return self.blocks + sum(child.count_pages() for child in self.entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "dir"
        extra = f", blocks={self.blocks}" if self.blocks > 1 else ""
        return f"Node({kind}, entries={len(self.entries)}{extra})"
